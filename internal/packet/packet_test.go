package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestSerializeDecodeRoundTripUDP(t *testing.T) {
	data := Serialize(
		&Ethernet{Dst: MAC(1, 2, 3, 4, 5, 6), Src: MAC(7, 8, 9, 10, 11, 12), EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoUDP, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2), TTL: 17},
		&UDP{SrcPort: 1111, DstPort: 2222},
		Raw("hello"),
	)
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ethernet.EtherType != EtherTypeIPv4 {
		t.Errorf("etherType = %#x", v.Ethernet.EtherType)
	}
	if v.IPv4 == nil || v.IPv4.Src != IP(10, 0, 0, 1) || v.IPv4.Dst != IP(10, 0, 0, 2) || v.IPv4.TTL != 17 {
		t.Errorf("ipv4 = %+v", v.IPv4)
	}
	if v.UDP == nil || v.UDP.SrcPort != 1111 || v.UDP.DstPort != 2222 {
		t.Errorf("udp = %+v", v.UDP)
	}
	if string(v.Payload) != "hello" {
		t.Errorf("payload = %q", v.Payload)
	}
	// UDP length covers header + payload.
	udpLen := binary.BigEndian.Uint16(data[14+20+4 : 14+20+6])
	if udpLen != 8+5 {
		t.Errorf("udp length = %d, want 13", udpLen)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	data := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoTCP, Src: IP(1, 2, 3, 4), Dst: IP(5, 6, 7, 8)},
		&TCP{SrcPort: 80, DstPort: 81},
	)
	ipHdr := data[14 : 14+20]
	if got := Checksum(ipHdr); got != 0 {
		t.Errorf("ipv4 header checksum over full header = %#x, want 0", got)
	}
	totalLen := binary.BigEndian.Uint16(ipHdr[2:4])
	if int(totalLen) != 20+20 {
		t.Errorf("totalLen = %d, want 40", totalLen)
	}
}

func TestDecodeTCP(t *testing.T) {
	data := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoTCP, Src: 1, Dst: 2},
		&TCP{SrcPort: 443, DstPort: 55555, Seq: 0xDEADBEEF, Flags: TCPSyn | TCPAck},
		Raw("x"),
	)
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.TCP == nil || v.TCP.Seq != 0xDEADBEEF || v.TCP.Flags != TCPSyn|TCPAck {
		t.Errorf("tcp = %+v", v.TCP)
	}
	if string(v.Payload) != "x" {
		t.Errorf("payload = %q", v.Payload)
	}
}

func TestDecodeDHCPAndDNS(t *testing.T) {
	dhcp := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoUDP, Src: 1, Dst: 2},
		&UDP{SrcPort: PortDHCPClient, DstPort: PortDHCPServer},
		&DHCP{Op: 1, HType: 1, HLen: 6, XID: 0xCAFE},
	)
	v, err := Decode(dhcp)
	if err != nil {
		t.Fatal(err)
	}
	if v.DHCP == nil || v.DHCP.XID != 0xCAFE {
		t.Errorf("dhcp = %+v", v.DHCP)
	}
	dns := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoUDP, Src: 1, Dst: 2},
		&UDP{SrcPort: 5353, DstPort: PortDNS},
		&DNS{ID: 99, QDCount: 1},
	)
	v2, err := Decode(dns)
	if err != nil {
		t.Fatal(err)
	}
	if v2.DNS == nil || v2.DNS.ID != 99 || v2.DNS.QDCount != 1 {
		t.Errorf("dns = %+v", v2.DNS)
	}
}

func TestDecodeGREInnerIPv4(t *testing.T) {
	data := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoGRE, Src: IP(192, 168, 0, 1), Dst: IP(192, 168, 0, 2)},
		&GRE{Protocol: EtherTypeIPv4},
		&IPv4{Protocol: ProtoTCP, Src: IP(10, 0, 0, 1), Dst: IP(10, 0, 0, 2)},
		&TCP{SrcPort: 1, DstPort: 2},
	)
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.GRE == nil || v.GRE.Protocol != EtherTypeIPv4 {
		t.Errorf("gre = %+v", v.GRE)
	}
	if v.InnerIPv4 == nil || v.InnerIPv4.Src != IP(10, 0, 0, 1) {
		t.Errorf("inner ipv4 = %+v", v.InnerIPv4)
	}
}

func TestDecodeShortFrames(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short frame should fail")
	}
	// Ethernet only: decodes with payload empty.
	v, err := Decode(Serialize(&Ethernet{EtherType: 0x1234}))
	if err != nil {
		t.Fatal(err)
	}
	if v.IPv4 != nil || len(v.Payload) != 0 {
		t.Errorf("view = %+v", v)
	}
}

func TestChecksumProperties(t *testing.T) {
	// Inserting the computed checksum yields a verifying header.
	f := func(raw []byte) bool {
		if len(raw) < 20 {
			return true
		}
		hdr := append([]byte(nil), raw[:20]...)
		hdr[10], hdr[11] = 0, 0
		c := Checksum(hdr)
		binary.BigEndian.PutUint16(hdr[10:12], c)
		return Checksum(hdr) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPHelpers(t *testing.T) {
	ip := IP(10, 1, 2, 3)
	if ip != 0x0A010203 {
		t.Errorf("IP = %#x", ip)
	}
	if IPString(ip) != "10.1.2.3" {
		t.Errorf("IPString = %s", IPString(ip))
	}
}

func TestRawBytesAreCopied(t *testing.T) {
	r := Raw("abc")
	b := r.AppendTo(nil)
	b[0] = 'z'
	if r[0] != 'a' {
		t.Error("Raw.AppendTo must copy the payload")
	}
}

func TestSerializeIsDeterministic(t *testing.T) {
	mk := func() []byte {
		return Serialize(
			&Ethernet{EtherType: EtherTypeIPv4},
			&IPv4{Protocol: ProtoUDP, Src: 1, Dst: 2, ID: 7},
			&UDP{SrcPort: 5, DstPort: 6},
			Raw("zz"),
		)
	}
	if !bytes.Equal(mk(), mk()) {
		t.Error("Serialize not deterministic")
	}
}

var serializeSink []byte

// Serialize's one allocation is the frame it returns: the layer literals,
// the variadic slice and the assembly buffer all stay on the caller's stack.
// Measured: 1 alloc/op for both stacks (the Bytes()-per-layer serializer
// this replaced made 9 and 12).
func TestSerializeAllocCeiling(t *testing.T) {
	src := IP(10, 0, 0, 1) // a variable, so the literals are not constant-folded
	tcp := testing.AllocsPerRun(200, func() {
		serializeSink = Serialize(
			&Ethernet{EtherType: EtherTypeIPv4},
			&IPv4{Protocol: ProtoTCP, Src: src, Dst: IP(10, 0, 0, 2)},
			&TCP{SrcPort: 1024, DstPort: 443, Seq: src, Flags: TCPAck},
		)
	})
	if tcp > 1 {
		t.Errorf("Serialize(Ethernet, IPv4, TCP) = %v allocs/op, want <= 1", tcp)
	}
	udp := testing.AllocsPerRun(200, func() {
		serializeSink = Serialize(
			&Ethernet{EtherType: EtherTypeIPv4},
			&IPv4{Protocol: ProtoUDP, Src: src, Dst: IP(10, 0, 0, 2)},
			&UDP{SrcPort: 5353, DstPort: PortDNS},
			Raw("blocked"),
		)
	})
	if udp > 1 {
		t.Errorf("Serialize(Ethernet, IPv4, UDP, Raw) = %v allocs/op, want <= 1", udp)
	}
}

// A frame too long for Serialize's stack buffer still serializes exactly.
func TestSerializeLargePayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	data := Serialize(
		&Ethernet{EtherType: EtherTypeIPv4},
		&IPv4{Protocol: ProtoUDP, Src: 1, Dst: 2},
		&UDP{SrcPort: 1, DstPort: 2},
		Raw(payload),
	)
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Payload, payload) || len(data) != 14+20+8+1000 {
		t.Errorf("large frame: %d bytes, payload %d", len(data), len(v.Payload))
	}
	if got := binary.BigEndian.Uint16(data[14+2 : 14+4]); got != 20+8+1000 {
		t.Errorf("totalLen = %d", got)
	}
}
