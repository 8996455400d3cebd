package trafficgen

import (
	"fmt"
	"math/rand"

	"p2go/internal/packet"
	"p2go/internal/programs"
)

// NATGRESpec parameterizes the NAT & GRE workload.
type NATGRESpec struct {
	Total int // 0 means 10000
	Seed  int64
	// NATShare and GREShare are the fractions of traffic using each
	// feature. No packet uses both — that is the profile observation
	// Phase 2 exploits.
	NATShare float64
	GREShare float64
}

// NATGRETrace generates traffic where NATted destinations and GRE-tunneled
// destinations are disjoint flows.
func NATGRETrace(spec NATGRESpec) *Trace { return NATGREPrefix(spec, 0) }

// NATGREPrefix is NATGRETrace's bounded form.
func NATGREPrefix(spec NATGRESpec, n int) *Trace {
	total := spec.Total
	if total == 0 {
		total = 10000
	}
	limit := bound(n, total)
	if spec.NATShare == 0 {
		spec.NATShare = 0.30
	}
	if spec.GREShare == 0 {
		spec.GREShare = 0.20
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	natDsts := []uint32{packet.IP(198, 51, 100, 10), packet.IP(198, 51, 100, 11)}
	greDsts := []uint32{packet.IP(10, 5, 0, 1), packet.IP(10, 5, 0, 2)}
	out := &Trace{Packets: make([]Packet, 0, limit)}
	for i := 0; i < limit; i++ {
		var dst uint32
		r := rng.Float64()
		switch {
		case r < spec.NATShare:
			dst = natDsts[rng.Intn(len(natDsts))]
		case r < spec.NATShare+spec.GREShare:
			dst = greDsts[rng.Intn(len(greDsts))]
		default:
			dst = packet.IP(10, 7, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		}
		out.Packets = append(out.Packets, Packet{
			Port: 1,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoTCP, Src: packet.IP(10, 6, byte(rng.Intn(256)), byte(1+rng.Intn(254))), Dst: dst},
				&packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443, Seq: rng.Uint32(), Flags: packet.TCPAck},
			),
		})
	}
	return out
}

// SourceguardSpec parameterizes the Sourceguard workload.
type SourceguardSpec struct {
	Total   int // 0 means 10000
	Seed    int64
	Clients int // learned clients; 0 means 40
	// ViolationShare is the fraction of traffic from unlearned sources.
	ViolationShare float64
}

// SourceguardTrace generates DHCP announcements for the learned clients
// first (populating the Bloom filter), then a mix of legitimate traffic,
// spoofed-source violations, and a few packets on the quarantined ingress
// ports — including one from a learned source and one from an unlearned
// source, so the ACL dependencies manifest in the profile.
func SourceguardTrace(spec SourceguardSpec) *Trace { return SourceguardPrefix(spec, 0) }

// SourceguardPrefix is SourceguardTrace's bounded form.
func SourceguardPrefix(spec SourceguardSpec, n int) *Trace {
	total := spec.Total
	if total == 0 {
		total = 10000
	}
	limit := bound(n, total)
	clients := spec.Clients
	if clients == 0 {
		clients = 40
	}
	if spec.ViolationShare == 0 {
		spec.ViolationShare = 0.02
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	learned := make([]uint32, clients)
	for i := range learned {
		learned[i] = packet.IP(10, 4, byte(i/250), byte(1+i%250))
	}
	out := &Trace{}
	// DHCP announcements populate the snooping database.
	for _, src := range learned {
		out.Packets = append(out.Packets, Packet{
			Port: 1,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoUDP, Src: src, Dst: packet.IP(10, 255, 255, 255)},
				&packet.UDP{SrcPort: packet.PortDHCPClient, DstPort: packet.PortDHCPServer},
				&packet.DHCP{Op: 1, HType: 1, HLen: 6, XID: rng.Uint32()},
			),
		})
	}
	// Two quarantined-port packets so the ingress ACL's dependencies with
	// both the forwarding table and the violation drop manifest.
	out.Packets = append(out.Packets,
		Packet{Port: 30, Data: sgDataPacket(learned[0], rng)},
		Packet{Port: 31, Data: sgDataPacket(packet.IP(172, 16, 66, 66), rng)},
	)
	for len(out.Packets) < limit {
		var src uint32
		if rng.Float64() < spec.ViolationShare {
			src = packet.IP(10, 66, byte(rng.Intn(256)), byte(1+rng.Intn(254))) // spoofed
		} else {
			src = learned[rng.Intn(len(learned))]
		}
		out.Packets = append(out.Packets, Packet{Port: 1, Data: sgDataPacket(src, rng)})
	}
	return out.head(n)
}

func sgDataPacket(src uint32, rng *rand.Rand) []byte {
	return packet.Serialize(
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{Protocol: packet.ProtoTCP, Src: src, Dst: packet.IP(10, 1, byte(rng.Intn(256)), byte(1+rng.Intn(254)))},
		&packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 80, Seq: rng.Uint32(), Flags: packet.TCPAck},
	)
}

// FailureSpec parameterizes the failure-detection workload.
type FailureSpec struct {
	Total int // 0 means 20000
	Seed  int64
	// BackgroundRetrans is the fraction of ordinary flows that
	// retransmit one packet.
	BackgroundRetrans float64
	// FailureBurst is the number of retransmissions hitting the failed
	// prefix; it must exceed programs.FailureAlarmThreshold for the
	// alarm to fire.
	FailureBurst int
}

// FailureTrace generates TCP traffic with sparse background
// retransmissions plus one failure event: FailureBurst distinct flows
// towards a single destination each retransmit one packet, driving the
// per-destination Count-Min Sketch past the alarm threshold.
func FailureTrace(spec FailureSpec) *Trace { return FailurePrefix(spec, 0) }

// FailurePrefix is FailureTrace's bounded form.
func FailurePrefix(spec FailureSpec, n int) *Trace {
	total := spec.Total
	if total == 0 {
		total = 20000
	}
	limit := bound(n, total)
	if spec.BackgroundRetrans == 0 {
		spec.BackgroundRetrans = 0.01
	}
	if spec.FailureBurst == 0 {
		spec.FailureBurst = programs.FailureAlarmThreshold + 8
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	failedDst := packet.IP(198, 51, 100, 7)
	out := &Trace{}
	mkPkt := func(src, dst uint32, sport uint16, seq uint32) []byte {
		return packet.Serialize(
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{Protocol: packet.ProtoTCP, Src: src, Dst: dst},
			&packet.TCP{SrcPort: sport, DstPort: 443, Seq: seq, Flags: packet.TCPAck},
		)
	}
	// Background traffic first; the failure burst goes in the middle.
	half := total / 2
	emitBackground := func(k int) {
		for i := 0; i < k && len(out.Packets) < limit; i++ {
			src := packet.IP(10, 30, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
			dst := packet.IP(10, 40, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
			sport := uint16(1024 + rng.Intn(60000))
			seq := rng.Uint32()
			data := mkPkt(src, dst, sport, seq)
			out.Packets = append(out.Packets, Packet{Port: 1, Data: data})
			if rng.Float64() < spec.BackgroundRetrans && len(out.Packets) < total {
				out.Packets = append(out.Packets, Packet{Port: 1, Data: mkPkt(src, dst, sport, seq)})
			}
		}
	}
	emitBackground(half)
	// Failure event: distinct flows to the failed prefix retransmit.
	for i := 0; i < spec.FailureBurst && len(out.Packets)+1 < total && len(out.Packets) < limit; i++ {
		src := packet.IP(10, 31, byte(i/200), byte(1+i%200))
		sport := uint16(2000 + i)
		seq := uint32(1000 + i)
		out.Packets = append(out.Packets,
			Packet{Port: 1, Data: mkPkt(src, failedDst, sport, seq)},
			Packet{Port: 1, Data: mkPkt(src, failedDst, sport, seq)}, // retransmission
		)
	}
	emitBackground(total - len(out.Packets))
	return out.head(n)
}

// L2L3ACLSpec parameterizes the phase-ordering workload.
type L2L3ACLSpec struct {
	Total int // 0 means 4000
	Seed  int64
	// UDPPeriod makes every UDPPeriod-th packet UDP (the rarely used ACL
	// path); 0 means 20, i.e. a 5% redirect fraction when the ACLs are
	// offloaded. Of the UDP packets, one in ten hits ACL1's blocked
	// destination port and one in ten hits ACL2's blocked source port —
	// never both on the same packet, so the ACL1→ACL2 dependency never
	// manifests.
	UDPPeriod int
}

// L2L3ACLTrace generates mostly-TCP routed traffic with a thin UDP slice
// whose ACL1 and ACL2 violations are disjoint. Destinations alternate
// between the two installed routes so both Flow_Count entries stay hot.
func L2L3ACLTrace(spec L2L3ACLSpec) *Trace { return L2L3ACLPrefix(spec, 0) }

// L2L3ACLPrefix is L2L3ACLTrace's bounded form.
func L2L3ACLPrefix(spec L2L3ACLSpec, n int) *Trace {
	total := spec.Total
	if total == 0 {
		total = 4000
	}
	limit := bound(n, total)
	period := spec.UDPPeriod
	if period == 0 {
		period = 20
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	out := &Trace{Packets: make([]Packet, 0, limit)}
	for i := 0; i < limit; i++ {
		// Every 4th destination takes the 10.2/16 pod route (next hop 2);
		// the rest take the 10/8 default (next hop 1).
		dst := packet.IP(10, 0, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		if i%4 == 1 {
			dst = packet.IP(10, 2, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		}
		src := packet.IP(10, 8, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		if i%period == period-1 {
			// UDP slot. Benign ports stay clear of both blocked ports
			// (10000+ source, 9000 destination) so only the designated
			// slots ever hit an ACL.
			sport := uint16(10000 + rng.Intn(50000))
			dport := uint16(9000)
			switch (i / period) % 10 {
			case 0:
				dport = programs.L2L3ACLBlockedDstPort // ACL1 drop
			case 1:
				sport = programs.L2L3ACLBlockedSrcPort // ACL2 drop
			}
			out.Packets = append(out.Packets, Packet{
				Port: 1,
				Data: packet.Serialize(
					&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
					&packet.IPv4{Protocol: packet.ProtoUDP, Src: src, Dst: dst},
					&packet.UDP{SrcPort: sport, DstPort: dport},
				),
			})
			continue
		}
		out.Packets = append(out.Packets, Packet{
			Port: 1,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoTCP, Src: src, Dst: dst},
				&packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443, Seq: rng.Uint32(), Flags: packet.TCPAck},
			),
		})
	}
	return out
}

// StressTrace exercises the does-not-fit ACL chain: every packet matches at
// most one ACL table.
func StressTrace(total int, seed int64) *Trace { return StressPrefix(total, seed, 0) }

// StressPrefix is StressTrace's bounded form.
func StressPrefix(total int, seed int64, n int) *Trace {
	if total == 0 {
		total = 5000
	}
	limit := bound(n, total)
	rng := rand.New(rand.NewSource(seed))
	out := &Trace{Packets: make([]Packet, 0, limit)}
	for i := 0; i < limit; i++ {
		var dport uint16
		if rng.Float64() < 0.5 {
			// Blocked by exactly one of the chained ACLs.
			dport = uint16(7000 + 1 + rng.Intn(programs.StressChainLength))
		} else {
			dport = uint16(20000 + rng.Intn(1000))
		}
		out.Packets = append(out.Packets, Packet{
			Port: 1,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoUDP, Src: packet.IP(10, 50, 0, byte(1+rng.Intn(254))), Dst: packet.IP(10, 51, 0, byte(1+rng.Intn(254)))},
				&packet.UDP{SrcPort: 5000, DstPort: dport},
				packet.Raw("stress"),
			),
		})
	}
	return out
}

// QuickstartTrace drives the quickstart router: routed, unrouted, and
// blocked-port packets.
func QuickstartTrace(total int, seed int64) *Trace { return QuickstartPrefix(total, seed, 0) }

// QuickstartPrefix is QuickstartTrace's bounded form.
func QuickstartPrefix(total int, seed int64, n int) *Trace {
	if total == 0 {
		total = 1000
	}
	limit := bound(n, total)
	rng := rand.New(rand.NewSource(seed))
	out := &Trace{Packets: make([]Packet, 0, limit)}
	for i := 0; i < limit; i++ {
		port := uint64(1)
		dst := packet.IP(10, 1, 2, byte(1+rng.Intn(254)))
		switch i % 10 {
		case 7:
			dst = packet.IP(192, 168, 3, byte(1+rng.Intn(254)))
		case 8:
			dst = packet.IP(8, 8, 8, 8) // unrouted
		case 9:
			port = 4 // blocked ingress port
		}
		out.Packets = append(out.Packets, Packet{
			Port: port,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoTCP, Src: packet.IP(10, 9, 9, byte(1+rng.Intn(254))), Dst: dst, TTL: 64},
				&packet.TCP{SrcPort: uint16(1024 + i), DstPort: 80, Seq: uint32(i), Flags: packet.TCPAck},
			),
		})
	}
	return out
}

// Describe summarizes a trace for logs.
func (t *Trace) Describe() string {
	return fmt.Sprintf("%d packets", len(t.Packets))
}

// MaglevSpec parameterizes the Maglev load-balancer workload.
type MaglevSpec struct {
	Seed int64
	// Flows is the number of distinct VIP connections; 0 means 600. With
	// the default connection table the flows index nearly collision-free;
	// shrinking conn_cells makes birthday collisions (and maglev_rehash
	// hits) grow quadratically in this count.
	Flows int
	// Rounds is the number of packets per connection; 0 means 5. The
	// rounds are interleaved across connections, so two colliding flows
	// keep evicting each other's connection-table slot.
	Rounds int
	// Background is the number of non-VIP routed packets; 0 means 2000.
	Background int
}

// MaglevTrace generates interleaved VIP connections plus routed
// background traffic. Each connection is a distinct (srcAddr, srcPort)
// pair sending Rounds packets to the VIP; packets are emitted round-robin
// across connections so connection-table collisions manifest as repeated
// evictions rather than a single overwrite.
func MaglevTrace(spec MaglevSpec) *Trace { return MaglevPrefix(spec, 0) }

// MaglevPrefix is MaglevTrace's bounded form. The connection table is
// always drawn whole (it comes first and costs no packets).
func MaglevPrefix(spec MaglevSpec, n int) *Trace {
	flows := spec.Flows
	if flows == 0 {
		flows = 600
	}
	rounds := spec.Rounds
	if rounds == 0 {
		rounds = 5
	}
	background := spec.Background
	if background == 0 {
		background = 2000
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	vip := packet.IP(203, 0, 113, 100)
	type flow struct {
		src   uint32
		sport uint16
	}
	// Random (src, sport) pairs: consecutive addressing would correlate
	// under the linear CRC index hash and distort the collision curve.
	fl := make([]flow, flows)
	for i := range fl {
		fl[i] = flow{
			src:   packet.IP(10, 60, byte(rng.Intn(256)), byte(1+rng.Intn(254))),
			sport: uint16(1024 + rng.Intn(60000)),
		}
	}
	limit := bound(n, flows*rounds+background)
	out := &Trace{Packets: make([]Packet, 0, limit)}
	bgPer := background / rounds
	emitBackground := func(k int) {
		for i := 0; i < k && len(out.Packets) < limit; i++ {
			out.Packets = append(out.Packets, Packet{
				Port: 1,
				Data: packet.Serialize(
					&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
					&packet.IPv4{Protocol: packet.ProtoTCP, Src: packet.IP(10, 61, byte(rng.Intn(256)), byte(1+rng.Intn(254))), Dst: packet.IP(10, 62, byte(rng.Intn(256)), byte(1+rng.Intn(254)))},
					&packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: 443, Seq: rng.Uint32(), Flags: packet.TCPAck},
				),
			})
		}
	}
	for r := 0; r < rounds; r++ {
		for _, f := range fl {
			if len(out.Packets) >= limit {
				break
			}
			out.Packets = append(out.Packets, Packet{
				Port: 1,
				Data: packet.Serialize(
					&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
					&packet.IPv4{Protocol: packet.ProtoTCP, Src: f.src, Dst: vip},
					&packet.TCP{SrcPort: f.sport, DstPort: 80, Seq: uint32(r), Flags: packet.TCPAck},
				),
			})
		}
		emitBackground(bgPer)
	}
	emitBackground(background - bgPer*rounds)
	return out
}

// SynCookieSpec parameterizes the SYN-cookie mitigation workload.
type SynCookieSpec struct {
	Seed int64
	// Clients is the number of legitimate clients; 0 means 300. Each
	// sends one SYN followed by AcksPerClient ACKs.
	Clients int
	// AcksPerClient is the post-handshake packet count; 0 means 3.
	AcksPerClient int
	// AttackSyns is the SYN-flood volume (spoofed, never completing a
	// handshake); 0 means 4000.
	AttackSyns int
	// AttackAcks is the ACK-flood volume, one packet per distinct spoofed
	// source; 0 means 2500. These are what pollute the proven-clients
	// filter and drive its false-positive rate at small sizes.
	AttackAcks int
}

// SynCookieTrace generates the mitigation mix: legitimate handshakes, a
// spoofed SYN flood, and a distinct-source ACK flood, shuffled
// deterministically. Every distinct non-SYN source's first packet should
// hit cookie_check; Bloom false positives at reduced filter sizes erode
// exactly that count.
func SynCookieTrace(spec SynCookieSpec) *Trace { return SynCookiePrefix(spec, 0) }

// SynCookiePrefix is SynCookieTrace's bounded form. The shuffle moves any
// packet anywhere, so every packet's fields are always drawn and shuffled;
// what the bound saves is serializing the frames past it.
func SynCookiePrefix(spec SynCookieSpec, n int) *Trace {
	clients := spec.Clients
	if clients == 0 {
		clients = 300
	}
	acks := spec.AcksPerClient
	if acks == 0 {
		acks = 3
	}
	attackSyns := spec.AttackSyns
	if attackSyns == 0 {
		attackSyns = 4000
	}
	attackAcks := spec.AttackAcks
	if attackAcks == 0 {
		attackAcks = 2500
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	service := packet.IP(10, 0, 0, 5)
	type segment struct {
		src   uint32
		sport uint16
		flags uint8
		seq   uint32
	}
	segs := make([]segment, 0, clients*(1+acks)+attackSyns+attackAcks)
	add := func(src uint32, sport uint16, flags uint8) {
		segs = append(segs, segment{src, sport, flags, rng.Uint32()})
	}
	for i := 0; i < clients; i++ {
		src := packet.IP(10, 20, byte(i/250), byte(1+i%250))
		add(src, uint16(1024+i), packet.TCPSyn)
		for a := 0; a < acks; a++ {
			add(src, uint16(1024+i), packet.TCPAck)
		}
	}
	for i := 0; i < attackSyns; i++ {
		src := packet.IP(198, 18, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		add(src, uint16(rng.Intn(65535)+1), packet.TCPSyn)
	}
	// Random attack sources (a few repeats are harmless): consecutive
	// addresses would correlate under the linear CRC filter hash and
	// suppress the false-positive curve the knob is supposed to expose.
	for i := 0; i < attackAcks; i++ {
		src := packet.IP(198, 19, byte(rng.Intn(256)), byte(1+rng.Intn(254)))
		add(src, uint16(2000+i), packet.TCPAck)
	}
	rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
	segs = segs[:bound(n, len(segs))]
	out := &Trace{Packets: make([]Packet, 0, len(segs))}
	for _, g := range segs {
		out.Packets = append(out.Packets, Packet{
			Port: 1,
			Data: packet.Serialize(
				&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
				&packet.IPv4{Protocol: packet.ProtoTCP, Src: g.src, Dst: service},
				&packet.TCP{SrcPort: g.sport, DstPort: 443, Seq: g.seq, Flags: g.flags},
			),
		})
	}
	return out
}

// ZipfSpec parameterizes the Zipf flow-popularity trace: a generic TCP
// mix whose flows follow a Zipf law, the realistic heavy-tailed shape
// where a handful of elephant flows carry most packets.
type ZipfSpec struct {
	Total int // 0 means 20000
	Seed  int64
	// Flows is the distinct flow count; 0 means 1024.
	Flows int
	// Skew is the Zipf s parameter (must be > 1); 0 means 1.2. Higher
	// skew concentrates more of the trace on the top flows.
	Skew float64
}

// ZipfTCPTrace draws Total packets from Flows distinct TCP flows with
// Zipf-distributed popularity. Packets of one flow are byte-identical, so
// the replay engine's flow deduplication collapses the trace to at most
// Flows representatives — the benchmark rows built on this trace measure
// exactly that effect.
func ZipfTCPTrace(spec ZipfSpec) *Trace {
	total := spec.Total
	if total == 0 {
		total = 20000
	}
	flows := spec.Flows
	if flows == 0 {
		flows = 1024
	}
	skew := spec.Skew
	if skew == 0 {
		skew = 1.2
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := rand.NewZipf(rng, skew, 1, uint64(flows-1))
	data := make([][]byte, flows)
	for i := range data {
		data[i] = packet.Serialize(
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{Protocol: packet.ProtoTCP, Src: packet.IP(10, 70, byte(i/250), byte(1+i%250)), Dst: packet.IP(10, 1, 2, byte(1+i%250)), TTL: 64},
			&packet.TCP{SrcPort: uint16(1024 + i), DstPort: 443, Seq: uint32(i), Flags: packet.TCPAck},
		)
	}
	out := &Trace{Packets: make([]Packet, 0, total)}
	for i := 0; i < total; i++ {
		out.Packets = append(out.Packets, Packet{Port: 1, Data: data[zipf.Uint64()]})
	}
	return out
}
