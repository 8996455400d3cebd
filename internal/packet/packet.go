// Package packet provides serialization and decoding for the protocol
// layers the examples use: Ethernet, IPv4, UDP, TCP, GRE, DHCP, and DNS,
// plus raw payloads. The design follows gopacket: each layer serializes
// itself, and Serialize composes a stack outside-in, fixing up lengths and
// checksums.
package packet

import (
	"encoding/binary"
	"fmt"
)

// EtherType values.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeARP  = 0x0806
)

// IP protocol numbers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoGRE  = 47
)

// Well-known UDP ports used by the examples.
const (
	PortDNS        = 53
	PortDHCPServer = 67
	PortDHCPClient = 68
)

// Layer is one of this package's eight protocol layers. A layer appends
// its own header to a frame under construction (gopacket's serialize-buffer
// shape); Serialize stitches layers together and lets the layers that carry
// a length or checksum (IPv4, UDP) fix them up over their payloads.
type Layer interface {
	// LayerName identifies the layer for diagnostics.
	LayerName() string
	// AppendTo appends the wire encoding of the header (without payload)
	// to b and returns the extended slice. It keeps no reference to b.
	AppendTo(b []byte) []byte
}

// Serialize encodes a layer stack outside-in (Ethernet first). It makes one
// allocation, the returned frame: the frame is assembled in a stack buffer
// (every bundled generator's frames fit; a larger one spills to the heap)
// and layers are dispatched on their concrete type, because a call through
// the interface would force every caller's layer literals to the heap.
func Serialize(layers ...Layer) []byte {
	var frame [128]byte
	var endsBuf [8]int
	b, ends := frame[:0], endsBuf[:0]
	for _, l := range layers {
		b = appendLayer(b, l)
		ends = append(ends, len(b))
	}
	// Fix up inside-out so outer checksums see final inner bytes.
	for i := len(layers) - 1; i >= 0; i-- {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		hdr, payload := b[start:ends[i]], b[ends[i]:]
		switch l := layers[i].(type) {
		case *IPv4:
			l.fixUp(hdr, payload)
		case *UDP:
			l.fixUp(hdr, payload)
		}
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

func appendLayer(b []byte, l Layer) []byte {
	switch l := l.(type) {
	case *Ethernet:
		return l.AppendTo(b)
	case *IPv4:
		return l.AppendTo(b)
	case *UDP:
		return l.AppendTo(b)
	case *TCP:
		return l.AppendTo(b)
	case *GRE:
		return l.AppendTo(b)
	case *DHCP:
		return l.AppendTo(b)
	case *DNS:
		return l.AppendTo(b)
	case Raw:
		return l.AppendTo(b)
	}
	panic("packet: Serialize of a layer type this package does not define")
}

// Ethernet is the 14-byte Ethernet II header.
type Ethernet struct {
	Dst       [6]byte
	Src       [6]byte
	EtherType uint16
}

// LayerName implements Layer.
func (e *Ethernet) LayerName() string { return "ethernet" }

// AppendTo implements Layer.
func (e *Ethernet) AppendTo(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return binary.BigEndian.AppendUint16(b, e.EtherType)
}

// IPv4 is the 20-byte (no options) IPv4 header.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src      uint32
	Dst      uint32
}

// LayerName implements Layer.
func (ip *IPv4) LayerName() string { return "ipv4" }

// AppendTo implements Layer; totalLen and the checksum stay zero until fixUp.
func (ip *IPv4) AppendTo(b []byte) []byte {
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	b = append(b, 0x45, ip.TOS, 0, 0) // version 4, IHL 5
	b = binary.BigEndian.AppendUint16(b, ip.ID)
	b = binary.BigEndian.AppendUint16(b, uint16(ip.Flags)<<13|ip.FragOff&0x1FFF)
	b = append(b, ttl, ip.Protocol, 0, 0)
	b = binary.BigEndian.AppendUint32(b, ip.Src)
	return binary.BigEndian.AppendUint32(b, ip.Dst)
}

// fixUp patches totalLen and the header checksum into hdr, the encoding
// AppendTo wrote, once the payload that follows it is serialized.
func (ip *IPv4) fixUp(hdr, payload []byte) {
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(hdr)+len(payload)))
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	binary.BigEndian.PutUint16(hdr[10:12], Checksum(hdr))
}

// Checksum computes the RFC 1071 ones-complement sum over data.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// UDP is the 8-byte UDP header. Length is filled by Serialize; the checksum
// is left zero (legal for IPv4).
type UDP struct {
	SrcPort uint16
	DstPort uint16
}

// LayerName implements Layer.
func (u *UDP) LayerName() string { return "udp" }

// AppendTo implements Layer.
func (u *UDP) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, u.SrcPort)
	b = binary.BigEndian.AppendUint16(b, u.DstPort)
	return append(b, 0, 0, 0, 0) // length, checksum
}

// fixUp patches the length into hdr once the payload is serialized.
func (u *UDP) fixUp(hdr, payload []byte) {
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(hdr)+len(payload)))
}

// TCP is a 20-byte (no options) TCP header.
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8 // FIN=1 SYN=2 RST=4 PSH=8 ACK=16
	Window  uint16
}

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// LayerName implements Layer.
func (t *TCP) LayerName() string { return "tcp" }

// AppendTo implements Layer (checksum left zero: the simulator ignores it).
func (t *TCP) AppendTo(b []byte) []byte {
	win := t.Window
	if win == 0 {
		win = 65535
	}
	b = binary.BigEndian.AppendUint16(b, t.SrcPort)
	b = binary.BigEndian.AppendUint16(b, t.DstPort)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b, 5<<4, t.Flags) // data offset
	b = binary.BigEndian.AppendUint16(b, win)
	return append(b, 0, 0, 0, 0) // checksum, urgent pointer
}

// GRE is the basic 4-byte GRE header (no optional fields).
type GRE struct {
	Protocol uint16 // EtherType of the encapsulated protocol
}

// LayerName implements Layer.
func (g *GRE) LayerName() string { return "gre" }

// AppendTo implements Layer.
func (g *GRE) AppendTo(b []byte) []byte {
	return binary.BigEndian.AppendUint16(append(b, 0, 0), g.Protocol)
}

// DHCP is the fixed 8-byte prefix of a BOOTP/DHCP message (enough for the
// snooping examples: op, htype, hlen, hops, xid).
type DHCP struct {
	Op    uint8 // 1 request, 2 reply
	HType uint8
	HLen  uint8
	Hops  uint8
	XID   uint32
}

// LayerName implements Layer.
func (d *DHCP) LayerName() string { return "dhcp" }

// AppendTo implements Layer.
func (d *DHCP) AppendTo(b []byte) []byte {
	return binary.BigEndian.AppendUint32(append(b, d.Op, d.HType, d.HLen, d.Hops), d.XID)
}

// DNS is the 12-byte DNS message header.
type DNS struct {
	ID      uint16
	Flags   uint16
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// LayerName implements Layer.
func (d *DNS) LayerName() string { return "dns" }

// AppendTo implements Layer.
func (d *DNS) AppendTo(b []byte) []byte {
	for _, v := range [...]uint16{d.ID, d.Flags, d.QDCount, d.ANCount, d.NSCount, d.ARCount} {
		b = binary.BigEndian.AppendUint16(b, v)
	}
	return b
}

// Raw is an opaque payload.
type Raw []byte

// LayerName implements Layer.
func (r Raw) LayerName() string { return "raw" }

// AppendTo implements Layer.
func (r Raw) AppendTo(b []byte) []byte { return append(b, r...) }

// MAC builds a MAC address from six bytes.
func MAC(a, b, c, d, e, f byte) [6]byte { return [6]byte{a, b, c, d, e, f} }

// IP builds an IPv4 address from dotted components.
func IP(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

// IPString formats an IPv4 address.
func IPString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}
