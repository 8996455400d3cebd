// Package trafficgen crafts the deterministic traffic traces the
// experiments profile with — our stand-in for the Scapy-based trace
// generation in the paper. Every generator is seeded and calibrated so the
// resulting profile matches the rates the paper reports (Ex. 1: IPv4 100%,
// ACL_UDP 8%, ACL_DHCP 14%, Sketch_* 2%, DNS_Drop 1%).
//
// Every workload generator XTrace(spec) has a bounded form XPrefix(spec, n)
// whose contract is the prefix property: it returns byte-for-byte the first
// n packets of XTrace(spec) — same ports, same frames, hence the same Digest
// as the truncated full trace — and all of them when n <= 0 or n exceeds the
// trace. A bounded run makes the full run's RNG draws in the full run's
// order and stops after packet n, so what a caller pays follows the packets
// it uses, not the length of the calibrated trace. XTrace is XPrefix(spec, 0).
package trafficgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"

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

// Trace is an ordered packet sequence. It memoizes its digest and flow
// index (see flows.go), so it travels by pointer.
type Trace struct {
	Packets []Packet

	digest memo[string]
	flows  memo[*Flows]
}

// Digest is the hex SHA-256 of the trace's packets (port, then the
// length-prefixed frame bytes), computed on first use. Every cache key that
// depends on a trace — profile analyses, fleet device rows — is built from
// it, so keys tell traces apart even when they come from the same generator
// spec.
func (t *Trace) Digest() string { return t.digest.get(t.Packets, digestPackets) }

func digestPackets(packets []Packet) string {
	h := sha256.New()
	var n [8]byte
	for _, pkt := range packets {
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

// bound is how many packets a generator has to produce to serve a request
// for the first n of total.
func bound(n, total int) int {
	if n <= 0 || n > total {
		return total
	}
	return n
}

// head cuts t down to the n packets asked for (n <= 0: all of them); a
// generator's last step may overshoot its bound.
func (t *Trace) head(n int) *Trace {
	if n > 0 && n < len(t.Packets) {
		t.Packets = t.Packets[:n]
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
func EnterpriseTrace(spec EnterpriseSpec) (*Trace, error) { return EnterprisePrefix(spec, 0) }

// Slot kinds of the enterprise schedule.
const (
	slotTCP = iota
	slotDNS
	slotBlocked
	slotDHCP
)

// slotFix is one exact-rate fixup: slot at, scheduled as a TCP filler, is
// redrawn as kind.
type slotFix struct {
	at   int
	kind uint8
}

// enterpriseSchedule lays out which kind of packet fills each slot of a
// total-packet enterprise trace, and the fixups applied to it afterwards in
// the order they are drawn (from the last slot down).
func enterpriseSchedule(total int) (slots []uint8, fixups []slotFix) {
	nBlocked := int(float64(total) * enterpriseBlockedUDPShare)
	nDHCP := int(float64(total) * enterpriseDHCPShare)
	nDNS := int(float64(total) * enterpriseDNSShare)

	// Interleave: spread the DNS packets evenly (in order), and schedule
	// the blocked-UDP and DHCP shares across the remaining slots with
	// Bresenham accumulators, so the mix is stationary — every profiling
	// window of the trace sees the same rates (a property the online
	// monitor's drift detection relies on).
	slots = make([]uint8, total)
	dnsEvery := total / nDNS
	nonDNS := total - nDNS
	dnsLeft, blockedLeft, dhcpLeft := nDNS, nBlocked, nDHCP
	accB, accD := 0, 0
	for i := range slots {
		if dnsLeft > 0 && i%dnsEvery == dnsEvery-1 {
			slots[i] = slotDNS
			dnsLeft--
			continue
		}
		accB += nBlocked
		if accB >= nonDNS && blockedLeft > 0 {
			accB -= nonDNS
			blockedLeft--
			slots[i] = slotBlocked
			continue
		}
		accD += nDHCP
		if accD >= nonDNS && dhcpLeft > 0 {
			accD -= nonDNS
			dhcpLeft--
			slots[i] = slotDHCP
		}
	}
	// Exact-rate fixups: swap trailing TCP fillers for any unscheduled
	// blocked/DHCP/DNS packets (the accumulators and the DNS slots collide;
	// about 1% of the default trace, all in its tail). They are drawn after
	// the whole first pass, from the last slot down.
	for i := total - 1; i >= 0 && dnsLeft+blockedLeft+dhcpLeft > 0; i-- {
		if slots[i] != slotTCP {
			continue
		}
		switch {
		case dnsLeft > 0:
			dnsLeft--
			fixups = append(fixups, slotFix{i, slotDNS})
		case blockedLeft > 0:
			blockedLeft--
			fixups = append(fixups, slotFix{i, slotBlocked})
		default:
			dhcpLeft--
			fixups = append(fixups, slotFix{i, slotDHCP})
		}
	}
	return slots, fixups
}

// EnterprisePrefix is EnterpriseTrace's bounded form.
func EnterprisePrefix(spec EnterpriseSpec, n int) (*Trace, error) {
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

	// The DNS sub-sequence, drawn on in order: heavy flow first, then the
	// engineered flow (so its packets see the heavy flow's inflated
	// cells), then clean light flows up to nDNS packets.
	dnsNext := 0
	mkDNS := func() Packet {
		k := dnsNext
		dnsNext++
		src, dst, id := heavySrc, dnsServer, k
		if k >= dnsHeavyCount+dnsEngineeredCount {
			// Distinct low-16 srcAddr bits per clean flow, avoiding the
			// heavy and engineered cells at both row sizes.
			id = k - dnsHeavyCount - dnsEngineeredCount
			src = packet.IP(10, 8, 0, 0) | uint32(5000+(id/4)*3)
		} else if k >= dnsHeavyCount {
			src, dst, id = engSrc, engDst, k-dnsHeavyCount
		}
		return Packet{Port: programs.TrustedPort, Data: dnsQuery(src, dst, uint16(id))}
	}
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
	mk := func(kind uint8) Packet {
		switch kind {
		case slotDNS:
			return mkDNS()
		case slotBlocked:
			return mkBlocked()
		case slotDHCP:
			return mkDHCP()
		}
		return mkTCP()
	}

	// Schedule first, generate second. Which kind of packet fills each slot
	// never depends on the RNG, so the schedule is laid out whole (integer
	// arithmetic only) and packets are then drawn for as many slots as the
	// caller asked for.
	slots, fixups := enterpriseSchedule(total)
	firstFix := total
	if len(fixups) > 0 {
		firstFix = fixups[len(fixups)-1].at
	}

	// A prefix that ends at or below the lowest fixed-up slot is untouched
	// by the fixups, and by the draws of every slot after it: generate just
	// the prefix. One that reaches into the fixups is generated in full and
	// truncated, so the answer never depends on which way it was produced.
	gen := bound(n, total)
	if gen > firstFix {
		gen = total
	}
	out := &Trace{Packets: make([]Packet, 0, gen)}
	for _, kind := range slots[:gen] {
		out.Packets = append(out.Packets, mk(kind))
	}
	if gen == total {
		for _, f := range fixups {
			out.Packets[f.at] = mk(f.kind)
		}
	}
	return out.head(n), nil
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

// crcCollisions memoizes findCRCCollision, a pure function of its
// arguments: the search runs thousands of CRC probes, more work than
// serializing the few hundred packets a bounded trace is asked for.
var crcCollisions sync.Map // crcCollisionKey -> uint32

type crcCollisionKey struct {
	heavySrc, heavyDst, engSrc uint32
	cells                      int
}

// findCRCCollision searches the enterprise space for a dstAddr such that
// crc16(engSrc, dst) lands in the same Sketch_2 cell (modulus cells) as
// crc16(heavySrc, heavyDst): the engineered flow then shares the heavy
// flow's row-2 cell at the ORIGINAL size, which row 1 masks until Phase 3
// shrinks it — exactly the over-counting hazard §3.3 describes.
func findCRCCollision(heavySrc, heavyDst, engSrc uint32, cells int) (uint32, error) {
	key := crcCollisionKey{heavySrc, heavyDst, engSrc, cells}
	if dst, ok := crcCollisions.Load(key); ok {
		return dst.(uint32), nil
	}
	target := flowCell(heavySrc, heavyDst, cells)
	for b2 := 0; b2 < 256; b2++ {
		for b3 := 1; b3 < 255; b3++ {
			dst := packet.IP(10, 0, byte(b2), byte(b3))
			if flowCell(engSrc, dst, cells) == target {
				crcCollisions.Store(key, dst)
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
