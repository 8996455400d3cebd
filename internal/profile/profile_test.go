package profile

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/programs"
	"p2go/internal/rt"
	"p2go/internal/sim"
	"p2go/internal/trafficgen"
)

func enterpriseTrace(t *testing.T) *trafficgen.Trace {
	t.Helper()
	trace, err := trafficgen.EnterpriseTrace(trafficgen.EnterpriseSpec{Seed: 1})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	return trace
}

// replay is the one replay path: prepare, take a profiler, RunWith.
func replay(t testing.TB, ast *p4.Program, cfg *rt.Config, trace *trafficgen.Trace, opts RunOptions) *Profile {
	t.Helper()
	ctx := context.Background()
	prep, err := PrepareContext(ctx, ast, cfg)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	prof, err := prep.Profiler().RunWith(ctx, trace, opts)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return prof
}

func profileEx1(t *testing.T) *Profile {
	t.Helper()
	return replay(t, p4.MustParse(programs.Ex1), programs.Ex1Config(), enterpriseTrace(t), RunOptions{Shards: 1})
}

// TestEx1HitRates pins the paper's Ex. 1 annotation: IPv4 100%, ACL_UDP 8%,
// ACL_DHCP 14%, Sketch_* 2%, DNS_Drop ~1%.
func TestEx1HitRates(t *testing.T) {
	prof := profileEx1(t)
	if prof.TotalPackets != 20000 {
		t.Fatalf("total = %d, want 20000", prof.TotalPackets)
	}
	want := map[string]float64{
		"IPv4":       1.00,
		"ACL_UDP":    0.08,
		"ACL_DHCP":   0.14,
		"Sketch_1":   0.02,
		"Sketch_2":   0.02,
		"Sketch_Min": 0.02,
	}
	for table, rate := range want {
		if got := prof.HitRate(table); math.Abs(got-rate) > 1e-9 {
			t.Errorf("%s hit rate = %.4f, want %.4f", table, got, rate)
		}
	}
	// DNS_Drop: the heavy flow's packets past the 128-query threshold.
	wantDrops := trafficgen.ExpectedEnterpriseDNSDrops()
	if got := prof.Hits["DNS_Drop"]; got != wantDrops {
		t.Errorf("DNS_Drop hits = %d, want %d", got, wantDrops)
	}
	if rate := prof.HitRate("DNS_Drop"); math.Abs(rate-0.01) > 1e-9 {
		t.Errorf("DNS_Drop hit rate = %.4f, want 0.0100", rate)
	}
}

// TestEx1NonExclusiveSets pins the paper's Table 1: exactly four distinct
// sets of non-exclusive actions with >= 2 members.
func TestEx1NonExclusiveSets(t *testing.T) {
	prof := profileEx1(t)
	sets := prof.NonExclusiveSets(2)
	if len(sets) != 4 {
		var got []string
		for _, s := range sets {
			got = append(got, "{"+strings.Join(s.Members, ",")+"}")
		}
		t.Fatalf("sets = %d, want 4:\n%s", len(sets), strings.Join(got, "\n"))
	}
	wantSets := []string{
		SetKey([]string{"IPv4.set_nhop", "ACL_UDP.acl_udp_drop"}),
		SetKey([]string{"IPv4.set_nhop", "ACL_DHCP.acl_dhcp_drop"}),
		SetKey([]string{"IPv4.set_nhop", "Sketch_1.sketch1_count", "Sketch_2.sketch2_count", "Sketch_Min.sketch_take_min"}),
		SetKey([]string{"IPv4.set_nhop", "Sketch_1.sketch1_count", "Sketch_2.sketch2_count", "Sketch_Min.sketch_take_min", "DNS_Drop.dns_limit_drop"}),
	}
	got := map[string]bool{}
	for _, s := range sets {
		got[SetKey(s.Members)] = true
	}
	for _, w := range wantSets {
		if !got[w] {
			t.Errorf("missing set {%s}", w)
		}
	}
}

// TestACLDependencyDoesNotManifest is Phase 2's key observation: the drop
// actions of ACL_UDP and ACL_DHCP are never applied to the same packet,
// while the IPv4/ACL_UDP dependency does manifest.
func TestACLDependencyDoesNotManifest(t *testing.T) {
	prof := profileEx1(t)
	if prof.CoOccurred("ACL_UDP", "acl_udp_drop", "ACL_DHCP", "acl_dhcp_drop") {
		t.Error("ACL drop actions must never co-occur in the enterprise trace")
	}
	if !prof.CoOccurred("IPv4", "set_nhop", "ACL_UDP", "acl_udp_drop") {
		t.Error("IPv4/ACL_UDP dependency should manifest")
	}
	// Table-level co-occurrence: ACL_UDP is applied to DHCP packets
	// (a UDP packet), it just never hits on them.
	if !prof.CoOccurred("ACL_DHCP", "acl_dhcp_drop", "ACL_UDP", "") {
		t.Error("ACL_UDP is applied to the same packets ACL_DHCP drops")
	}
}

// TestCoOccurAllocs: Phase 2 asks these questions for every pair of every
// candidate edge, so once RunWith has parsed the execution sets a query
// reads the index and allocates nothing. A profile built without the index
// answers the same.
func TestCoOccurAllocs(t *testing.T) {
	prof := profileEx1(t)
	bare := *prof
	bare.classes = nil
	query := func(p *Profile) [4]bool {
		return [4]bool{
			p.CoOccurred("ACL_UDP", "acl_udp_drop", "ACL_DHCP", "acl_dhcp_drop"),
			p.CoOccurred("IPv4", "set_nhop", "ACL_UDP", "acl_udp_drop"),
			p.CoOccurred("ACL_DHCP", "acl_dhcp_drop", "ACL_UDP", ""),
			p.CoHit("ACL_DHCP", "acl_dhcp_drop", "ACL_UDP"),
		}
	}
	if got, want := query(prof), [4]bool{false, true, true, false}; got != want || query(&bare) != want {
		t.Errorf("indexed answers %v, unindexed %v, want %v", got, query(&bare), want)
	}
	if !reflect.DeepEqual(prof.NonExclusiveSets(2), bare.NonExclusiveSets(2)) || prof.BehaviorDiff(&bare) != "" {
		t.Error("the index changed NonExclusiveSets or BehaviorDiff")
	}
	if raceEnabled {
		t.Skip("allocation counts do not apply under -race")
	}
	if allocs := testing.AllocsPerRun(100, func() { query(prof) }); allocs != 0 {
		t.Errorf("CoOccurred/CoHit made %.0f allocations per query batch, want 0", allocs)
	}
}

// TestReducedSketchChangesProfile reproduces §3.3's discard decision:
// shrinking Sketch_1's register to the binary-search minimum makes the CMS
// over-count, raising DNS_Drop's hit rate; the profile comparison detects
// it.
func TestReducedSketchChangesProfile(t *testing.T) {
	trace := enterpriseTrace(t)
	base := replay(t, p4.MustParse(programs.Ex1), programs.Ex1Config(), trace, RunOptions{Shards: 1})
	reduced := p4.MustParse(programs.Ex1)
	reduced.Register("cms_r1").InstanceCount = programs.Ex1ReducedSketchCells
	// The resize also updates the hash modulus, as P2GO's rewrite does.
	act := reduced.Action("sketch1_count")
	for _, call := range act.Body {
		if call.Name == p4.PrimHashOffset {
			call.Args[3] = p4.IntLit{Value: uint64(programs.Ex1ReducedSketchCells)}
		}
	}
	redProf := replay(t, reduced, programs.Ex1Config(), trace, RunOptions{Shards: 1})
	if base.Equal(redProf) {
		t.Fatal("reduced-sketch profile must differ (CMS over-counting)")
	}
	if redProf.Hits["DNS_Drop"] <= base.Hits["DNS_Drop"] {
		t.Errorf("DNS_Drop hits: reduced %d should exceed base %d",
			redProf.Hits["DNS_Drop"], base.Hits["DNS_Drop"])
	}
	diff := base.Diff(redProf)
	if !strings.Contains(diff, "DNS_Drop") {
		t.Errorf("Diff should mention DNS_Drop: %s", diff)
	}
	// Everything except the DNS limiter behaves identically.
	for _, tbl := range []string{"IPv4", "ACL_UDP", "ACL_DHCP", "Sketch_1", "Sketch_2", "Sketch_Min"} {
		if base.Hits[tbl] != redProf.Hits[tbl] {
			t.Errorf("table %s hits changed: %d vs %d", tbl, base.Hits[tbl], redProf.Hits[tbl])
		}
	}
}

// TestReducedIPv4KeepsProfile: the IPv4 shrink (the optimization P2GO
// applies) must NOT change the profile.
func TestReducedIPv4KeepsProfile(t *testing.T) {
	trace := enterpriseTrace(t)
	base := replay(t, p4.MustParse(programs.Ex1), programs.Ex1Config(), trace, RunOptions{Shards: 1})
	reduced := p4.MustParse(programs.Ex1)
	reduced.Table("IPv4").Size = programs.Ex1IPv4ReducedSize
	redProf := replay(t, reduced, programs.Ex1Config(), trace, RunOptions{Shards: 1})
	if !base.Equal(redProf) {
		t.Errorf("IPv4 shrink changed the profile: %s", base.Diff(redProf))
	}
}

func TestProfileDeterminism(t *testing.T) {
	a := profileEx1(t)
	b := profileEx1(t)
	if !a.Equal(b) {
		t.Errorf("profiles differ across runs: %s", a.Diff(b))
	}
}

func TestInstrumentMarkers(t *testing.T) {
	ast := p4.MustParse(programs.Ex1)
	ins, err := Instrument(ast)
	if err != nil {
		t.Fatal(err)
	}
	// Markers: one per (table, action) plus miss markers for the two
	// ACLs (reads, no default). Ex1 has 8 declared table-action pairs.
	wantMarkers := 8 + 2
	if len(ins.Fields) != wantMarkers {
		t.Errorf("markers = %d, want %d: %v", len(ins.Fields), wantMarkers, ins.sortedFieldNames())
	}
	if ins.Field("IPv4", "set_nhop") == "" {
		t.Error("missing marker for IPv4.set_nhop")
	}
	if got := len(ins.AST.HeaderType(trailerType).Fields); got != wantMarkers {
		t.Errorf("profiling header has %d fields, want %d", got, wantMarkers)
	}
	// The original program is untouched.
	if ast.Instance(TrailerName) != nil {
		t.Error("Instrument mutated its input")
	}
	if len(ast.Action("set_nhop").Body) != 1 {
		t.Error("Instrument mutated the original action body")
	}
	// The instrumented program re-instruments cleanly? No: it must refuse.
	if _, err := Instrument(ins.AST); err == nil {
		t.Error("re-instrumenting an instrumented program should fail")
	}
}

func TestInstrumentSharedActionSpecialized(t *testing.T) {
	src := `
header_type m_t { fields { x : 8; } }
metadata m_t m;
action shared_drop() { drop(); }
table t1 { reads { m.x : exact; } actions { shared_drop; } size : 4; }
table t2 { reads { m.x : exact; } actions { shared_drop; } size : 4; }
control ingress { apply(t1); apply(t2); }
`
	ast := p4.MustParse(src)
	if err := p4.Check(ast); err != nil {
		t.Fatal(err)
	}
	ins, err := Instrument(ast)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Field("t1", "shared_drop") == "" {
		t.Error("t1 keeps the original action name")
	}
	if ins.Field("t2", "shared_drop__t2") == "" {
		t.Error("t2 should get a specialized clone")
	}
	if ins.AST.Action("shared_drop__t2") == nil {
		t.Error("specialized action not declared")
	}
}

// Field returns the marker field for (table, action), or "".
func (ins *Instrumented) Field(table, action string) string {
	for _, f := range ins.Fields {
		if f.Table == table && f.Action == action {
			return f.Field
		}
	}
	return ""
}

// sortedFieldNames lists the marker fields, sorted.
func (ins *Instrumented) sortedFieldNames() []string {
	var out []string
	for _, f := range ins.Fields {
		out = append(out, f.Field)
	}
	sort.Strings(out)
	return out
}

// ParseTrailer extracts the marker values from an outgoing packet of the
// instrumented program and returns the executed (table, action) pairs, in
// marker order.
func (ins *Instrumented) ParseTrailer(data []byte) ([]FieldInfo, error) {
	n := len(ins.Fields)
	if len(data) < n {
		return nil, fmt.Errorf("profile: packet shorter (%d bytes) than trailer (%d)", len(data), n)
	}
	trailer := data[len(data)-n:]
	var executed []FieldInfo
	for i, info := range ins.Fields {
		if trailer[i] != 0 {
			executed = append(executed, info)
		}
	}
	return executed, nil
}

// TestParseTrailerErrors: a packet shorter than the profiling header does
// not parse, and the header the instrumented clone appends to a packet it
// forwards holds, byte for byte, the execution marks that a fate-level plan
// of the source program returns for it — the header follows sim.Marks.
func TestParseTrailerErrors(t *testing.T) {
	ast := p4.MustParse(programs.Ex1)
	ins, err := Instrument(ast)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.ParseTrailer([]byte{1}); err == nil {
		t.Error("short packet should fail trailer parsing")
	}

	cfg := programs.Ex1Config()
	instProg, err := ir.Build(ins.AST)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sim.New(instProg, cfg, sim.Options{Trailer: TrailerName, NeutralizeDrops: true})
	if err != nil {
		t.Fatal(err)
	}
	p4.EnsureBuiltins(ast)
	prog, err := ir.Build(ast)
	if err != nil {
		t.Fatal(err)
	}
	fate, err := sim.New(prog, cfg, sim.Options{Observe: sim.ObserveFate})
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for i, pkt := range enterpriseTrace(t).Packets[:500] {
		in := sim.Input{Port: pkt.Port, Data: pkt.Data}
		out, err := inst.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		if out.WouldDrop {
			// The clone egresses the packet the source drops.
			continue
		}
		executed, err := ins.ParseTrailer(out.Data)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		marks, err := fate.Process(in)
		if err != nil {
			t.Fatal(err)
		}
		var want []FieldInfo
		for j, m := range marks.Data {
			if m != 0 {
				want = append(want, ins.Fields[j])
			}
		}
		if !reflect.DeepEqual(executed, want) {
			t.Fatalf("packet %d: trailer says %v, fate marks say %v", i, executed, want)
		}
		compared++
	}
	if compared == 0 {
		t.Error("every packet was dropped: no trailer was compared")
	}
}

// TestRuntimeDefaultOnSharedAction: t2 shares fwd with t1, so the clone
// names t2's marker fwd__t2, while the rules set t2's default by the
// program's own name. Every packet misses t2 and runs that default: on
// both engines t2 has no hit, and every execution set holds its miss. (The
// miss classification once keyed the override by the program's name and
// looked it up by the clone's, counting all 8 misses as hits; and the
// interpreter, replaying the clone, refused the rules.)
func TestRuntimeDefaultOnSharedAction(t *testing.T) {
	ast := p4.MustParse(`
header_type h_t { fields { a : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action fwd(port) { modify_field(standard_metadata.egress_spec, port); }
table t1 { reads { h.a : exact; } actions { fwd; } }
table t2 { reads { h.a : exact; } actions { fwd; } }
control ingress { apply(t1); apply(t2); }
`)
	cfg, err := rt.Parse("table_add t1 fwd 1 => 2\ntable_set_default t2 fwd 3\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := &trafficgen.Trace{}
	for i := 0; i < 8; i++ {
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: []byte{byte(1 + i%2)}})
	}
	prep, err := PrepareContext(context.Background(), ast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, interpret := range []bool{false, true} {
		prof, err := prep.Profiler().RunWith(context.Background(), trace, RunOptions{Shards: 1, Interpret: interpret})
		if err != nil {
			t.Fatalf("interpret=%v: %v", interpret, err)
		}
		if prof.Hits["t2"] != 0 || prof.Applied["t2"] != 8 || prof.Hits["t1"] != 4 {
			t.Errorf("interpret=%v: t2 hit %d of %d applies, t1 hit %d times; want 0 of 8, and 4",
				interpret, prof.Hits["t2"], prof.Applied["t2"], prof.Hits["t1"])
		}
		for key := range prof.Sets {
			if !slices.Contains(strings.Split(key, "|"), "t2.fwd__t2"+missTag) {
				t.Errorf("interpret=%v: set {%s} lacks t2's miss", interpret, key)
			}
		}
	}
}

func TestProfileRender(t *testing.T) {
	prof := profileEx1(t)
	r := prof.Render()
	for _, want := range []string{"IPv4", "100.00%", "ACL_UDP", "8.00%", "non-exclusive"} {
		if !strings.Contains(r, want) {
			t.Errorf("Render missing %q:\n%s", want, r)
		}
	}
}

// TestDroppedPacketsSkipEgress: a packet dropped in ingress never reaches
// egress, so its profile counts no egress apply, and Drops counts it — on
// the compiled replay of the program and on the interpreter's alike.
func TestDroppedPacketsSkipEgress(t *testing.T) {
	ast := p4.MustParse(`
header_type h_t { fields { a : 8; } }
header h_t h;
parser start { extract(h); return ingress; }
action fwd() { modify_field(standard_metadata.egress_spec, 1); }
action do_drop() { drop(); }
action tag() { modify_field(h.a, 7); }
table filter { reads { h.a : exact; } actions { fwd; do_drop; } default_action : fwd; }
table rewrite { actions { tag; } default_action : tag; }
control ingress { apply(filter); }
control egress { apply(rewrite); }
`)
	cfg, err := rt.Parse("table_add filter do_drop 1 =>\n")
	if err != nil {
		t.Fatal(err)
	}
	trace := &trafficgen.Trace{}
	for i := 0; i < 8; i++ {
		trace.Packets = append(trace.Packets, trafficgen.Packet{Port: 1, Data: []byte{byte(1 + i%3)}})
	}
	prep, err := PrepareContext(context.Background(), ast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, interpret := range []bool{false, true} {
		prof, err := prep.Profiler().RunWith(context.Background(), trace, RunOptions{Shards: 1, Interpret: interpret})
		if err != nil {
			t.Fatal(err)
		}
		if prof.Drops != 3 || prof.Hits["filter"] != 3 || prof.Applied["rewrite"] != 5 {
			t.Errorf("interpret=%v: drops %d, filter hits %d, rewrite applied %d times; want 3, 3, 5",
				interpret, prof.Drops, prof.Hits["filter"], prof.Applied["rewrite"])
		}
	}
}

func TestAppliedCounts(t *testing.T) {
	prof := profileEx1(t)
	// ACL_UDP is applied to every UDP packet: blocked + DHCP + DNS.
	applied := prof.Applied["ACL_UDP"]
	wantMin := prof.Hits["ACL_UDP"] + prof.Hits["ACL_DHCP"] + prof.Hits["Sketch_1"]
	if applied < wantMin {
		t.Errorf("ACL_UDP applied = %d, want >= %d", applied, wantMin)
	}
	if prof.Applied["IPv4"] != prof.TotalPackets {
		t.Errorf("IPv4 applied = %d, want all %d", prof.Applied["IPv4"], prof.TotalPackets)
	}
}

// appliedFromSets recomputes Applied from the execution sets: a table was
// applied to a packet exactly when the packet's set holds one of its
// entries.
func appliedFromSets(p *Profile) map[string]int {
	out := map[string]int{}
	for key, n := range p.Sets {
		seen := map[string]bool{}
		for _, m := range strings.Split(key, "|") {
			table := m[:strings.IndexByte(m, '.')]
			if !seen[table] {
				seen[table] = true
				out[table] += n
			}
		}
	}
	return out
}

// TestAppliedFollowsSets: Phase 4 reads Applied as a block's entry count,
// so every way a profile is assembled must keep it the function of Sets it
// is defined as — the plain replay, dedup's weighted representatives, and
// MergeProfiles over shards — and Diff must notice when it is not.
func TestAppliedFollowsSets(t *testing.T) {
	check := func(name string, p *Profile) {
		t.Helper()
		if want := appliedFromSets(p); !reflect.DeepEqual(p.Applied, want) {
			t.Errorf("%s: Applied = %v, sets say %v", name, p.Applied, want)
		}
	}
	check("ex1 sequential", profileEx1(t))

	// Dedup: 16 distinct natgre packets repeated 4000 times, so every
	// representative carries a weight far above one.
	base := trafficgen.NATGRETrace(trafficgen.NATGRESpec{Seed: 4})
	trace := &trafficgen.Trace{}
	for i := 0; i < 4000; i++ {
		trace.Packets = append(trace.Packets, base.Packets[i*7%16])
	}
	prep, err := PrepareContext(context.Background(), p4.MustParse(programs.NATGRE), programs.NATGREConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 1, NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := prep.Profiler().RunWith(ctx, trace, RunOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dedup.Engine.UniquePackets != 16 {
		t.Fatalf("dedup replayed %d packets, want 16", dedup.Engine.UniquePackets)
	}
	check("natgre dedup", dedup)
	if !reflect.DeepEqual(dedup.Applied, full.Applied) {
		t.Errorf("dedup weighting changed Applied: %v vs %v", dedup.Applied, full.Applied)
	}

	// Merge: the two halves of the trace, profiled apart, sum to the whole.
	half := len(trace.Packets) / 2
	var parts []*Profile
	for _, pkts := range [][]trafficgen.Packet{trace.Packets[:half], trace.Packets[half:]} {
		part, err := prep.Profiler().RunWith(ctx, &trafficgen.Trace{Packets: pkts}, RunOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	merged := MergeProfiles(parts...)
	check("natgre merged halves", merged)
	if !reflect.DeepEqual(merged.Applied, full.Applied) {
		t.Errorf("MergeProfiles changed Applied: %v vs %v", merged.Applied, full.Applied)
	}
	if d := merged.Diff(full); d != "" {
		t.Errorf("merged halves differ from the whole: %s", d)
	}

	// A miscounted Applied entry alone makes two profiles unequal.
	merged.Applied["nat"]++
	if d := merged.Diff(full); !strings.Contains(d, "table nat: applied") {
		t.Errorf("Diff missed a corrupted Applied entry: %q", d)
	}
}
