// Package trafficgen crafts the deterministic traffic traces the
// experiments profile with — our stand-in for the Scapy-based trace
// generation in the paper. Every generator is seeded and calibrated so the
// resulting profile matches the rates the paper reports (Ex. 1: IPv4 100%,
// ACL_UDP 8%, ACL_DHCP 14%, Sketch_* 2%, DNS_Drop 1%).
package trafficgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"p2go/internal/hashes"
	"p2go/internal/packet"
	"p2go/internal/pcap"
	"p2go/internal/programs"
)

// Packet is one trace entry: the ingress port and the raw frame.
type Packet struct {
	Port uint64
	Data []byte
}

// Trace is an ordered packet sequence.
type Trace struct {
	Packets []Packet
}

// Digest is the hex SHA-256 of the trace's packets (port, then the
// length-prefixed frame bytes). Every cache key that depends on a trace —
// profile analyses, fleet device rows — is built from it, so keys tell
// traces apart even when they come from the same generator spec.
func (t *Trace) Digest() string {
	h := sha256.New()
	var n [8]byte
	for _, pkt := range t.Packets {
		binary.BigEndian.PutUint64(n[:], pkt.Port)
		h.Write(n[:])
		binary.BigEndian.PutUint64(n[:], uint64(len(pkt.Data)))
		h.Write(n[:])
		h.Write(pkt.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Records converts the trace to pcap records (ports are not representable
// in classic pcap; persist them separately if they matter).
func (t *Trace) Records() []pcap.Record {
	out := make([]pcap.Record, len(t.Packets))
	for i, p := range t.Packets {
		out[i] = pcap.Record{TimestampSec: uint32(i / 1000), TimestampFrac: uint32(i % 1000), Data: p.Data}
	}
	return out
}

// FromRecords builds a trace from pcap records, assigning every packet the
// given ingress port.
func FromRecords(recs []pcap.Record, port uint64) *Trace {
	t := &Trace{}
	for _, r := range recs {
		t.Packets = append(t.Packets, Packet{Port: port, Data: r.Data})
	}
	return t
}

// EnterpriseSpec parameterizes the Ex. 1 workload.
type EnterpriseSpec struct {
	Total int   // total packets; 0 means 20000
	Seed  int64 // rng seed for flow/address jitter

	// ReducedSketchCells is the Sketch_1 row size Phase 3's binary search
	// will land on; the generator engineers a flow that collides with the
	// heavy DNS flow at this modulus (but not at the original size), so
	// the reduced program over-counts and the profile check trips.
	// 0 means programs.Ex1ReducedSketchCells.
	ReducedSketchCells int
}

// Enterprise traffic shares (fractions of the total).
const (
	enterpriseBlockedUDPShare = 0.08 // ACL_UDP hit rate
	enterpriseDHCPShare       = 0.14 // ACL_DHCP hit rate
	enterpriseDNSShare        = 0.02 // Sketch_* hit rate
)

// DNS sub-mix for the default 20k-packet trace: the heavy flow crosses the
// 128-query threshold and produces exactly 1% DNS_Drop hits; the engineered
// flow only trips after Sketch_1 shrinks; the rest are clean light flows.
const (
	dnsHeavyCount      = programs.Ex1DNSThreshold - 1 + 200 // 327: packets 128..327 drop (200 = 1%)
	dnsEngineeredCount = 40
)

// Heavy and engineered DNS flow addressing. The identity hash h1 takes the
// low 16 bits of ipv4.srcAddr, so the engineered flow's srcAddr differs
// from the heavy flow's by exactly ReducedSketchCells in those bits: the
// two flows share a Sketch_1 cell only at the reduced row size.
var (
	dnsHeavySrcLow16 = uint32(1000)
	dnsServer        = packet.IP(10, 0, 0, 53)
)

// EnterpriseTrace generates the calibrated Ex. 1 mix. It fails only if the
// engineered CRC collision cannot be found in the enterprise address space
// (which would indicate a hash implementation change).
func EnterpriseTrace(spec EnterpriseSpec) (*Trace, error) {
	total := spec.Total
	if total == 0 {
		total = 20000
	}
	reduced := spec.ReducedSketchCells
	if reduced == 0 {
		reduced = programs.Ex1ReducedSketchCells
	}
	if total < 2000 {
		return nil, fmt.Errorf("trafficgen: enterprise trace needs at least 2000 packets, got %d", total)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	nBlocked := int(float64(total) * enterpriseBlockedUDPShare)
	nDHCP := int(float64(total) * enterpriseDHCPShare)
	nDNS := int(float64(total) * enterpriseDNSShare)
	if nDNS < dnsHeavyCount+dnsEngineeredCount+8 {
		return nil, fmt.Errorf("trafficgen: DNS share too small (%d packets) for the calibrated sub-mix", nDNS)
	}

	heavySrc := packet.IP(10, 9, 0, 0) | dnsHeavySrcLow16
	engSrcLow := dnsHeavySrcLow16 + uint32(reduced)
	if engSrcLow >= 1<<16 {
		return nil, fmt.Errorf("trafficgen: reduced cell count %d leaves no room in the 16-bit hash space", reduced)
	}
	engSrc := packet.IP(10, 9, 0, 0) | engSrcLow
	engDst, err := findCRCCollision(heavySrc, dnsServer, engSrc, programs.Ex1SketchCells)
	if err != nil {
		return nil, err
	}

	// Build the DNS sub-sequence: heavy flow first, then the engineered
	// flow (so its packets see the heavy flow's inflated cells), then
	// clean light flows.
	var dns []Packet
	for i := 0; i < dnsHeavyCount; i++ {
		dns = append(dns, Packet{Port: programs.TrustedPort, Data: dnsQuery(heavySrc, dnsServer, uint16(i))})
	}
	for i := 0; i < dnsEngineeredCount; i++ {
		dns = append(dns, Packet{Port: programs.TrustedPort, Data: dnsQuery(engSrc, engDst, uint16(i))})
	}
	for i := 0; len(dns) < nDNS; i++ {
		// Distinct low-16 srcAddr bits per clean flow, avoiding the
		// heavy and engineered cells at both row sizes.
		low := uint32(5000 + (i/4)*3)
		src := packet.IP(10, 8, 0, 0) | low
		dns = append(dns, Packet{Port: programs.TrustedPort, Data: dnsQuery(src, dnsServer, uint16(i))})
	}

	// Interleave: spread the DNS packets evenly (in order), and schedule
	// the blocked-UDP and DHCP shares across the remaining slots with
	// Bresenham accumulators, so the mix is stationary — every profiling
	// window of the trace sees the same rates (a property the online
	// monitor's drift detection relies on).
	out := &Trace{}
	mkBlocked := func() Packet {
		port := programs.Ex1BlockedUDPPorts[rng.Intn(len(programs.Ex1BlockedUDPPorts))]
		return Packet{
			Port: programs.TrustedPort,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoUDP, Src: randClient(rng), Dst: randServer(rng)},
				&packet.UDP{SrcPort: uint16(20000 + rng.Intn(20000)), DstPort: uint16(port)},
				packet.Raw("blocked"),
			),
		}
	}
	mkDHCP := func() Packet {
		return Packet{
			Port: programs.UntrustedPort,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoUDP, Src: randClient(rng), Dst: packet.IP(10, 255, 255, 255)},
				&packet.UDP{SrcPort: packet.PortDHCPClient, DstPort: packet.PortDHCPServer},
				&packet.DHCP{Op: 1, HType: 1, HLen: 6, XID: rng.Uint32()},
			),
		}
	}
	mkTCP := func() Packet {
		return Packet{
			Port: programs.TrustedPort,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoTCP, Src: randClient(rng), Dst: randServer(rng)},
				&packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443,
					Seq: rng.Uint32(), Flags: packet.TCPAck},
			),
		}
	}
	dnsEvery := total / nDNS
	nonDNS := total - nDNS
	dnsIdx, blockedLeft, dhcpLeft := 0, nBlocked, nDHCP
	accB, accD := 0, 0
	for i := 0; i < total; i++ {
		if dnsIdx < len(dns) && i%dnsEvery == dnsEvery-1 {
			out.Packets = append(out.Packets, dns[dnsIdx])
			dnsIdx++
			continue
		}
		accB += nBlocked
		if accB >= nonDNS && blockedLeft > 0 {
			accB -= nonDNS
			blockedLeft--
			out.Packets = append(out.Packets, mkBlocked())
			continue
		}
		accD += nDHCP
		if accD >= nonDNS && dhcpLeft > 0 {
			accD -= nonDNS
			dhcpLeft--
			out.Packets = append(out.Packets, mkDHCP())
			continue
		}
		out.Packets = append(out.Packets, mkTCP())
	}
	// Exact-rate fixups: swap trailing TCP fillers for any unscheduled
	// blocked/DHCP/DNS packets (at most a handful when accumulators and
	// DNS slots collide near the end).
	for i := len(out.Packets) - 1; i >= 0 && blockedLeft+dhcpLeft+(len(dns)-dnsIdx) > 0; i-- {
		v, err := packet.Decode(out.Packets[i].Data)
		if err != nil || v.TCP == nil {
			continue
		}
		switch {
		case dnsIdx < len(dns):
			out.Packets[i] = dns[dnsIdx]
			dnsIdx++
		case blockedLeft > 0:
			blockedLeft--
			out.Packets[i] = mkBlocked()
		case dhcpLeft > 0:
			dhcpLeft--
			out.Packets[i] = mkDHCP()
		}
	}
	return out, nil
}

// ExpectedEnterpriseDNSDrops returns how many DNS_Drop hits the calibrated
// trace produces on the original program (the heavy flow's packets past the
// threshold).
func ExpectedEnterpriseDNSDrops() int { return dnsHeavyCount - (programs.Ex1DNSThreshold - 1) }

// dnsQuery builds one DNS query packet.
func dnsQuery(src, dst uint32, id uint16) []byte {
	return packet.Serialize(
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoUDP, Src: src, Dst: dst},
		&packet.UDP{SrcPort: 5353, DstPort: packet.PortDNS},
		&packet.DNS{ID: id, QDCount: 1},
	)
}

// randClient picks an enterprise client address outside the DNS flow space.
func randClient(rng *rand.Rand) uint32 {
	return packet.IP(10, 20, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
}

// randServer picks a destination inside the routed 10.0.0.0/8 space.
func randServer(rng *rand.Rand) uint32 {
	return packet.IP(10, byte(rng.Intn(3)), byte(rng.Intn(256)), byte(1+rng.Intn(254)))
}

// findCRCCollision searches the enterprise space for a dstAddr such that
// crc16(engSrc, dst) lands in the same Sketch_2 cell (modulus cells) as
// crc16(heavySrc, heavyDst): the engineered flow then shares the heavy
// flow's row-2 cell at the ORIGINAL size, which row 1 masks until Phase 3
// shrinks it — exactly the over-counting hazard §3.3 describes.
func findCRCCollision(heavySrc, heavyDst, engSrc uint32, cells int) (uint32, error) {
	target := flowCell(heavySrc, heavyDst, cells)
	for b2 := 0; b2 < 256; b2++ {
		for b3 := 1; b3 < 255; b3++ {
			dst := packet.IP(10, 0, byte(b2), byte(b3))
			if flowCell(engSrc, dst, cells) == target {
				return dst, nil
			}
		}
	}
	return 0, fmt.Errorf("trafficgen: no crc16 collision found in the 10.0.0.0/16 space")
}

// flowCell computes the Sketch_2 cell of a flow: crc16 over the 8-byte
// (srcAddr, dstAddr) field list, modulo the row size.
func flowCell(src, dst uint32, cells int) uint64 {
	data := hashes.SerializeValues([]uint64{uint64(src), uint64(dst)}, []int{32, 32})
	return hashes.Compute(hashes.CRC16, data, 16) % uint64(cells)
}
