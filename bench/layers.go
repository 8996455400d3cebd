package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"p2go/internal/cluster"
	"p2go/internal/deps"
	"p2go/internal/ir"
	"p2go/internal/p4"
	"p2go/internal/profile"
	"p2go/internal/rt"
	"p2go/internal/service"
	"p2go/internal/sim"
	"p2go/internal/tofino"
	"p2go/internal/trafficgen"
)

// spanMetric names the per-layer metric each span feeds. The metric's
// suffix says how: _us and _ms are the span's duration, _ns_per_pkt is the
// duration over the packets the span handled.
var spanMetric = map[string]string{
	"p4.parse_check":       "p4.parse_check_us",
	"p4.print":             "p4.print_us",
	"p4.instantiate":       "p4.instantiate_us",
	"rt.parse":             "rt.parse_us",
	"rt.format":            "rt.format_us",
	"trafficgen.gen":       "trafficgen.gen_ns_per_pkt",
	"ir.build":             "ir.build_us",
	"deps.build":           "deps.build_us",
	"tofino.allocate":      "tofino.allocate_us",
	"tofino.compile":       "tofino.compile_us",
	"profile.prepare":      "profile.prepare_us",
	"sim.plan":             "sim.plan_us",
	"profile.replay":       "profile.replay_ns_per_pkt",
	"sim.exec":             "sim.exec_ns_per_pkt",
	"profile.merge":        "profile.merge_us",
	"core.optimize":        "core.optimize_ms",
	"controller.verify":    "controller.verify_ns_per_pkt",
	"report.encode":        "report.encode_us",
	"service.trace_digest": "service.trace_digest_ns_per_pkt",
	"service.submit":       "service.submit_ms",
	"service.journal":      "service.journal_append_us",
	"service.cache_hit":    "service.cache_hit_us",
	"service.cache_spill":  "service.cache_spill_us",
	"cluster.acquire":      "cluster.acquire_us",
	"cluster.renew":        "cluster.renew_us",
}

// harvest turns spans into samples of their layers' metrics.
func harvest(t *tally, class string, spans []span) {
	for _, s := range spans {
		metric, ok := spanMetric[s.name]
		if !ok {
			continue
		}
		switch {
		case strings.HasSuffix(metric, "_ns_per_pkt"):
			if s.units > 0 {
				t.add(metric, class, float64(s.dur())/s.units)
			}
		case strings.HasSuffix(metric, "_us"):
			t.add(metric, class, us(s.dur()))
		default:
			t.add(metric, class, ms(s.dur()))
		}
	}
}

// probeProgram calls the layers below the optimizer directly on one
// program, reps times each under a "probes" root, and derives the
// replay engine's ratios: what the collector adds to bare execution, what
// dedup and sharding buy. gen generates the workload's trace for p.
func probeProgram(t *tally, tr *recorder, reps int, p *program, gen func() (*trafficgen.Trace, error)) {
	first := tr.mark()
	tr.begin("probes", 0)
	var ratios replayRatios
	var err error
	for i := 0; i < reps && err == nil; i++ {
		err = probeProgramOnce(tr, p, gen, &ratios)
	}
	tr.end()
	if err != nil {
		t.op(p.name+" (probes)", err)
		return
	}
	harvest(t, p.name, tr.since(first))
	t.add("profile.collect_ns_per_pkt", p.name, median(ratios.bare)-median(ratios.exec))
	t.add("profile.shard_speedup", p.name, median(ratios.seq)/median(ratios.sharded))
	t.add("profile.dedup_ratio", p.name, ratios.dedup)
}

// replayRatios are ns per packet of one trace replayed four ways, and how
// many packets each replayed representative stood for.
type replayRatios struct {
	exec    []float64 // bare sim execution, no collector
	bare    []float64 // profiler, one shard, no dedup
	seq     []float64 // profiler, one shard, dedup
	sharded []float64 // profiler, a shard per CPU, dedup
	dedup   float64
}

func probeProgramOnce(tr *recorder, p *program, gen func() (*trafficgen.Trace, error), ratios *replayRatios) error {
	ctx := context.Background()

	tr.begin("trafficgen.gen", 0)
	trace, err := gen()
	if err != nil {
		tr.end()
		return err
	}
	packets := float64(len(trace.Packets))
	tr.endUnits(packets)
	tr.begin("service.trace_digest", packets)
	service.TraceDigest(trace)
	tr.end()

	tr.begin("p4.print", 0)
	p4.Print(p.prog)
	tr.end()
	tr.begin("p4.instantiate", 0)
	_, err = p4.Instantiate(p.prog, nil)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("rt.format", 0)
	rt.Format(p.cfg)
	tr.end()

	tr.begin("ir.build", 0)
	irProg, err := ir.Build(p.prog)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin("deps.build", 0)
	graph := deps.Build(irProg)
	tr.end()
	tr.begin("tofino.allocate", 0)
	_, err = tofino.Allocate(irProg, graph, tofino.DefaultTarget())
	tr.end()
	if err != nil {
		return err
	}

	tr.begin("profile.prepare", 0)
	prep, err := profile.PrepareContext(ctx, p.prog, p.cfg)
	tr.end()
	if err != nil {
		return err
	}
	// The plan the profiler replays: the instrumented program, lowered as
	// profile.PrepareContext lowers it.
	instrumented, err := ir.Build(prep.Ins.AST)
	if err != nil {
		return err
	}
	tr.begin("sim.plan", 0)
	plan, err := sim.NewPlan(instrumented, p.cfg, sim.Options{Trailer: profile.TrailerName, NeutralizeDrops: true})
	tr.end()
	if err != nil {
		return err
	}

	ins := make([]sim.Input, len(trace.Packets))
	for i, pkt := range trace.Packets {
		ins[i] = sim.Input{Port: pkt.Port, Data: pkt.Data}
	}
	outs := make([]sim.Output, len(ins))
	tr.begin("sim.exec", packets)
	_, err = sim.NewFromPlan(plan).ProcessBatch(ins, outs, sim.BatchOpts{SkipExec: true, ReuseData: true})
	ratios.exec = append(ratios.exec, float64(tr.end())/packets)
	if err != nil {
		return err
	}

	replay := func(name string, opts profile.RunOptions, into *[]float64) (*profile.Profile, error) {
		tr.begin(name, 0)
		pf, err := prep.Profiler().RunWith(ctx, trace, opts)
		*into = append(*into, float64(tr.end())/packets)
		return pf, err
	}
	bare, err := replay("profile.replay_bare", profile.RunOptions{Shards: 1, NoDedup: true}, &ratios.bare)
	if err != nil {
		return err
	}
	seq, err := replay("profile.replay_seq", profile.RunOptions{Shards: 1}, &ratios.seq)
	if err != nil {
		return err
	}
	if _, err := replay("profile.replay_sharded", profile.RunOptions{}, &ratios.sharded); err != nil {
		return err
	}
	if seq.Engine != nil && seq.Engine.UniquePackets > 0 {
		ratios.dedup = packets / float64(seq.Engine.UniquePackets)
	}
	tr.begin("profile.merge", 0)
	profile.MergeProfiles(bare, seq)
	tr.end()
	return nil
}

// probeDaemonLayers times the daemon's durable pieces alone, in a fresh
// directory under dir: a journal append pair (accepted + finished, each
// fsynced), a spilled artifact-cache store and a hit on it, and a job lease
// acquire and renew.
func probeDaemonLayers(t *tally, tr *recorder, reps int, dir string) {
	if err := probeDaemonLayersIn(t, tr, reps, dir); err != nil {
		t.op("daemon layer probes", err)
	}
}

func probeDaemonLayersIn(t *tally, tr *recorder, reps int, dir string) error {
	dir, err := os.MkdirTemp(dir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	journal, err := service.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer journal.Close()
	cache := service.NewCache(0, filepath.Join(dir, "spill"))
	node, err := cluster.Join(cluster.Config{Dir: filepath.Join(dir, "cluster"), ID: "bench"})
	if err != nil {
		return err
	}
	defer node.Leave()

	first := tr.mark()
	body := make([]byte, 10<<10) // about one optimize report
	spec := service.JobSpec{Kind: "optimize", Workload: "natgre", Seed: 1}
	tr.begin("probes", 0)
	defer tr.end()
	for i := 0; i < 4*reps; i++ { // cheap calls: four times the usual repeats
		id := fmt.Sprintf("j-%06d", i)
		tr.begin("service.journal", 0)
		journal.Accepted(id, spec)
		journal.Finished(id, service.StateDone)
		tr.end()

		tr.begin("service.cache_spill", 0)
		cache.PutBytes("job:"+id, body)
		tr.end()
		tr.begin("service.cache_hit", 0)
		_, hit, err := cache.DoBytes("job:"+id, func() ([]byte, error) { return body, nil })
		tr.end()
		if err != nil || !hit {
			return fmt.Errorf("artifact cache missed a key just stored (err %v)", err)
		}

		tr.begin("cluster.acquire", 0)
		lease, err := node.AcquireJob("job:" + id)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("cluster.renew", 0)
		err = node.RenewJob(lease)
		tr.end()
		if err != nil {
			return err
		}
	}
	harvest(t, "", tr.since(first))
	return nil
}
