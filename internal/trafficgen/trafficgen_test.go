package trafficgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"p2go/internal/packet"
	"p2go/internal/pcap"
	"p2go/internal/programs"
)

func TestEnterpriseTraceComposition(t *testing.T) {
	trace, err := EnterpriseTrace(EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Packets) != 20000 {
		t.Fatalf("packets = %d, want 20000", len(trace.Packets))
	}
	var blocked, dhcp, dns, tcp int
	for _, pkt := range trace.Packets {
		v, err := packet.Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case v.DNS != nil:
			dns++
		case v.DHCP != nil:
			dhcp++
			if pkt.Port != programs.UntrustedPort {
				t.Error("DHCP packet not on the untrusted port")
			}
		case v.UDP != nil:
			blocked++
		case v.TCP != nil:
			tcp++
		}
	}
	if blocked != 1600 {
		t.Errorf("blocked UDP = %d, want 1600 (8%%)", blocked)
	}
	if dhcp != 2800 {
		t.Errorf("DHCP = %d, want 2800 (14%%)", dhcp)
	}
	if dns != 400 {
		t.Errorf("DNS = %d, want 400 (2%%)", dns)
	}
	if blocked+dhcp+dns+tcp != 20000 {
		t.Errorf("composition does not add up: %d+%d+%d+%d", blocked, dhcp, dns, tcp)
	}
}

func TestEnterpriseTraceDeterministic(t *testing.T) {
	a, err := EnterpriseTrace(EnterpriseSpec{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EnterpriseTrace(EnterpriseSpec{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("lengths differ")
	}
	for i := range a.Packets {
		if a.Packets[i].Port != b.Packets[i].Port || !bytes.Equal(a.Packets[i].Data, b.Packets[i].Data) {
			t.Fatalf("packet %d differs between runs with the same seed", i)
		}
	}
	c, err := EnterpriseTrace(EnterpriseSpec{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i].Data, c.Packets[i].Data) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different traces")
	}
}

// TestEnterpriseHeavyBeforeEngineered: the CMS-collision engineering needs
// the heavy flow's packets to precede the engineered flow's.
func TestEnterpriseHeavyBeforeEngineered(t *testing.T) {
	trace, err := EnterpriseTrace(EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	heavyLow := dnsHeavySrcLow16
	engLow := dnsHeavySrcLow16 + uint32(programs.Ex1ReducedSketchCells)
	lastHeavy, firstEng := -1, -1
	for i, pkt := range trace.Packets {
		v, _ := packet.Decode(pkt.Data)
		if v == nil || v.DNS == nil {
			continue
		}
		low := v.IPv4.Src & 0xFFFF
		if low == heavyLow {
			lastHeavy = i
		}
		if low == engLow && firstEng == -1 {
			firstEng = i
		}
	}
	if lastHeavy == -1 || firstEng == -1 {
		t.Fatal("heavy or engineered flow missing from the trace")
	}
	if firstEng < lastHeavy {
		t.Errorf("engineered flow starts at %d, before the heavy flow ends at %d", firstEng, lastHeavy)
	}
}

func TestEnterpriseTraceErrors(t *testing.T) {
	if _, err := EnterpriseTrace(EnterpriseSpec{Total: 100}); err == nil {
		t.Error("tiny trace should be rejected")
	}
	if _, err := EnterpriseTrace(EnterpriseSpec{ReducedSketchCells: 1 << 17}); err == nil {
		t.Error("out-of-range reduced cell count should be rejected")
	}
}

func TestNATGRETraceDisjointFeatures(t *testing.T) {
	trace := NATGRETrace(NATGRESpec{Seed: 1})
	natDst := map[uint32]bool{packet.IP(198, 51, 100, 10): true, packet.IP(198, 51, 100, 11): true}
	greDst := map[uint32]bool{packet.IP(10, 5, 0, 1): true, packet.IP(10, 5, 0, 2): true}
	var nat, gre int
	for _, pkt := range trace.Packets {
		v, _ := packet.Decode(pkt.Data)
		if natDst[v.IPv4.Dst] {
			nat++
		}
		if greDst[v.IPv4.Dst] {
			gre++
		}
	}
	if nat == 0 || gre == 0 {
		t.Fatalf("nat=%d gre=%d, want both nonzero", nat, gre)
	}
	// Shares are approximately the spec defaults (30% / 20%).
	total := float64(len(trace.Packets))
	if f := float64(nat) / total; f < 0.25 || f > 0.35 {
		t.Errorf("nat share = %f, want ~0.30", f)
	}
	if f := float64(gre) / total; f < 0.15 || f > 0.25 {
		t.Errorf("gre share = %f, want ~0.20", f)
	}
}

func TestSourceguardTraceLearnsBeforeChecking(t *testing.T) {
	trace := SourceguardTrace(SourceguardSpec{Seed: 1})
	seenData := false
	for _, pkt := range trace.Packets {
		v, _ := packet.Decode(pkt.Data)
		if v.DHCP != nil {
			if seenData {
				t.Fatal("DHCP announcement after data traffic began")
			}
			continue
		}
		if v.TCP != nil {
			seenData = true
		}
	}
	if !seenData {
		t.Fatal("no data traffic in the trace")
	}
	// Quarantined-port packets are present.
	ports := map[uint64]int{}
	for _, pkt := range trace.Packets {
		ports[pkt.Port]++
	}
	if ports[30] == 0 || ports[31] == 0 {
		t.Errorf("quarantined-port packets missing: %v", ports)
	}
}

func TestFailureTraceRetransmissions(t *testing.T) {
	trace := FailureTrace(FailureSpec{Seed: 1})
	type flowKey struct {
		src, dst uint32
		sport    uint16
		seq      uint32
	}
	seen := map[flowKey]int{}
	failedDst := packet.IP(198, 51, 100, 7)
	var failedRetrans int
	for _, pkt := range trace.Packets {
		v, _ := packet.Decode(pkt.Data)
		if v.TCP == nil {
			continue
		}
		k := flowKey{v.IPv4.Src, v.IPv4.Dst, v.TCP.SrcPort, v.TCP.Seq}
		seen[k]++
		if seen[k] > 1 && v.IPv4.Dst == failedDst {
			failedRetrans++
		}
	}
	if failedRetrans < programs.FailureAlarmThreshold {
		t.Errorf("failure burst retransmissions = %d, want >= %d",
			failedRetrans, programs.FailureAlarmThreshold)
	}
}

func TestStressTraceMatchesAtMostOneACL(t *testing.T) {
	trace := StressTrace(1000, 1)
	for _, pkt := range trace.Packets {
		v, _ := packet.Decode(pkt.Data)
		if v.UDP == nil {
			t.Fatal("stress trace must be UDP")
		}
		matches := 0
		for i := 1; i <= programs.StressChainLength; i++ {
			if v.UDP.DstPort == uint16(7000+i) {
				matches++
			}
		}
		if matches > 1 {
			t.Fatalf("packet matches %d ACLs", matches)
		}
	}
}

func TestTraceRecordsRoundTrip(t *testing.T) {
	trace := QuickstartTrace(50, 1)
	recs := trace.Records()
	var buf bytes.Buffer
	if err := pcap.WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	read, err := pcap.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := FromRecords(read, 9)
	if len(back.Packets) != len(trace.Packets) {
		t.Fatalf("round trip lost packets: %d vs %d", len(back.Packets), len(trace.Packets))
	}
	for i := range back.Packets {
		if back.Packets[i].Port != 9 {
			t.Fatal("FromRecords should assign the given port")
		}
		if !bytes.Equal(back.Packets[i].Data, trace.Packets[i].Data) {
			t.Fatalf("packet %d data differs after pcap round trip", i)
		}
	}
	if trace.Describe() != "50 packets" {
		t.Errorf("Describe = %s", trace.Describe())
	}
}

func samePackets(a, b []Packet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Port != b[i].Port || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// The enterprise generator's exact-rate fixups redraw TCP slots in the
// trace's tail after the first pass. A prefix that ends at or below the
// lowest of them is generated bounded, one that reaches into them in full
// and truncated; both must be the head of the full trace, exactly at that
// switch and across the tail, for a non-default Total too.
func TestEnterprisePrefixAcrossFixups(t *testing.T) {
	for _, total := range []int{20000, 33333} {
		spec := EnterpriseSpec{Seed: 5, Total: total}
		full, err := EnterpriseTrace(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, fixups := enterpriseSchedule(total)
		if len(fixups) == 0 {
			t.Fatalf("total %d: no fixups, nothing to straddle", total)
		}
		first := fixups[len(fixups)-1].at
		ns := []int{first - 2, first - 1, first, first + 1, first + 2, fixups[0].at, fixups[0].at + 1}
		for n := first - 100; n < total; n += 41 {
			ns = append(ns, n)
		}
		for _, n := range ns {
			got, err := EnterprisePrefix(spec, n)
			if err != nil {
				t.Fatal(err)
			}
			if !samePackets(got.Packets, full.Packets[:n]) {
				t.Fatalf("total %d, fixups from slot %d: first %d packets differ from the full trace's", total, first, n)
			}
		}
	}
}

// Non-default spec fields bound the same way: the prefix is cut from the
// trace the spec describes, not the default one.
func TestPrefixHonoursSpec(t *testing.T) {
	equal := func(name string, got, full *Trace, n int) {
		t.Helper()
		if !samePackets(got.Packets, full.Packets[:n]) {
			t.Errorf("%s: first %d packets differ from the full trace's", name, n)
		}
	}
	fs := FailureSpec{Seed: 3, Total: 900, BackgroundRetrans: 0.2}
	for _, n := range []int{1, 449, 450, 451, 520, 899} {
		equal("failure", FailurePrefix(fs, n), FailureTrace(fs), n)
	}
	ms := MaglevSpec{Seed: 3, Flows: 50, Rounds: 3, Background: 100}
	for _, n := range []int{1, 50, 51, 83, 84, 249} {
		equal("maglev", MaglevPrefix(ms, n), MaglevTrace(ms), n)
	}
	ss := SourceguardSpec{Seed: 3, Total: 200, Clients: 60}
	for _, n := range []int{1, 60, 62, 63, 199} {
		equal("sourceguard", SourceguardPrefix(ss, n), SourceguardTrace(ss), n)
	}
	sc := SynCookieSpec{Seed: 3, Clients: 20, AttackSyns: 50, AttackAcks: 30}
	for _, n := range []int{1, 80, 159} {
		equal("syncookie", SynCookiePrefix(sc, n), SynCookieTrace(sc), n)
	}
}

// TestDigestMatchesPerPacketStream holds the chunked digest to the stream
// it hashes, written one field at a time: port, frame length, frame. The
// cases put frames on both sides of every chunk boundary, fill a chunk
// exactly, and include empty frames and frames larger than a chunk.
func TestDigestMatchesPerPacketStream(t *testing.T) {
	reference := func(packets []Packet) string {
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
	frame := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + n)
		}
		return b
	}
	cases := map[string][]int{
		"none":         nil,
		"empty frames": {0, 0, 0},
		"exact chunk":  {digestChunk - 16, 0, 60},
		"straddle":     {digestChunk - 20, 8, digestChunk - 16, 1},
		"jumbo":        {60, digestChunk, 3 * digestChunk, 0, digestChunk - 15},
		"many small":   nil,
	}
	for i := 0; i < 5000; i++ {
		cases["many small"] = append(cases["many small"], 40+i%90)
	}
	for name, sizes := range cases {
		var packets []Packet
		for i, n := range sizes {
			packets = append(packets, Packet{Port: uint64(i % 5), Data: frame(n)})
		}
		// Twice: the second call reuses the first one's buffer.
		for round := 0; round < 2; round++ {
			if got, want := digestPackets(packets), reference(packets); got != want {
				t.Errorf("%s, round %d: digest %s, per-packet stream %s", name, round, got, want)
			}
		}
	}
}
