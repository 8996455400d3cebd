package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"p2go"
	"p2go/internal/fleet"
	"p2go/internal/p4"
	"p2go/internal/pool"
	"p2go/internal/profile"
	"p2go/internal/trafficgen"
	"p2go/internal/workloads"
)

// BenchResult is one micro-benchmark's measurement. The fields mirror the
// `go test -bench` vocabulary (iterations, ns/op) plus the quantities the
// paper's evaluation cares about: simulator throughput and pipeline
// lengths before/after optimization.
type BenchResult struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Parallelism is the worker count the benchmark ran with: 1 for the
	// sequential baselines, the shard count for the replay family, and
	// the machine's CPU count for the default optimize run. 0 means the
	// knob does not apply (compile).
	Parallelism int     `json:"parallelism,omitempty"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are the -benchmem figures, for rows whose
	// subject is allocation (build-injections).
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	// PacketsPerSec is the replay throughput, for trace-replay benchmarks.
	PacketsPerSec float64 `json:"packets_per_sec,omitempty"`
	// StagesBefore/StagesAfter are the pipeline lengths around the full
	// optimization, for optimize benchmarks.
	StagesBefore int `json:"stages_before,omitempty"`
	StagesAfter  int `json:"stages_after,omitempty"`
}

// BenchFile is the schema of the -bench output (BENCH_p2go.json).
type BenchFile struct {
	Seed       int64         `json:"seed"`
	Benchmarks []BenchResult `json:"benchmarks"`
}

// benchWorkloads are the workloads the suite measures: the paper's running
// example plus the three Table 3 programs.
var benchWorkloads = []string{"ex1", "natgre", "sourceguard", "failure"}

// replayShardCounts is the sharded-replay benchmark family: the sequential
// baseline plus the shard counts the EXPERIMENTS.md scaling table quotes.
var replayShardCounts = []int{1, 2, 4}

// maxRegression is the tolerated replay-throughput loss against a
// committed baseline before -bench-baseline fails the run (CI smoke).
const maxRegression = 0.30

// minEngineSpeedup is the compiled-engine bar enforced under
// -bench-baseline: single-shard compiled replay must beat the interpreter
// measured in the same run by at least this factor. Comparing within one
// run makes the guard machine-independent, unlike the absolute baseline.
const minEngineSpeedup = 1.5

// runBench runs the micro-benchmark suite and writes the JSON results to
// path. Per workload it measures: compile (stage allocation), profile
// (instrument + sequential trace replay, reporting packets/sec), replay at
// each shard count (the parallel engine; stateful workloads fall back and
// stay flat), and optimize (the full four-phase pipeline with the default
// parallelism, reporting the stage reduction). only, when non-empty,
// restricts the run to that workload; baselinePath, when set, fails the
// run if any replay throughput regressed more than 30% vs the baseline.
func runBench(path string, seed int64, only, baselinePath string) error {
	out := BenchFile{Seed: seed}
	ran := 0
	for _, name := range benchWorkloads {
		if only != "" && only != name {
			continue
		}
		ran++
		w, err := workloads.Get(name)
		if err != nil {
			return err
		}
		prog, err := p2go.ParseProgram(w.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		cfg := w.Config()
		trace, err := w.Trace(seed)
		if err != nil {
			return err
		}

		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p2go.Compile(prog, p2go.DefaultTarget()); err != nil {
					b.Fatal(err)
				}
			}
		})
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name: "compile", Workload: name,
			Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
		})
		fmt.Printf("  compile/%-12s %10d iters  %12.0f ns/op\n", name, r.N, float64(r.NsPerOp()))

		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p2go.RunProfile(context.Background(), prog, cfg, trace, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name: "profile", Workload: name, Parallelism: 1,
			Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
			PacketsPerSec: replayRate(r, len(trace.Packets)),
		})
		fmt.Printf("  profile/%-12s %10d iters  %12.0f ns/op  %10.0f packets/sec\n",
			name, r.N, float64(r.NsPerOp()), replayRate(r, len(trace.Packets)))

		// Replay family: the sharded engine alone (instrumentation done
		// once, outside the loop), across shard counts. Stateful programs
		// fall back to sequential replay, so their rows stay flat — that
		// is the documented behavior, not a measurement error.
		profiler, err := newProfiler(w)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var compiledP1 float64
		for _, shards := range replayShardCounts {
			shards := shards
			r = testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := profiler.RunWith(context.Background(), trace, profile.RunOptions{Shards: shards}); err != nil {
						b.Fatal(err)
					}
				}
			})
			rate := replayRate(r, len(trace.Packets))
			if shards == 1 {
				compiledP1 = rate
			}
			out.Benchmarks = append(out.Benchmarks, BenchResult{
				Name: "replay", Workload: name, Parallelism: shards,
				Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
				PacketsPerSec: rate,
			})
			fmt.Printf("  replay/%-9s x%-2d %10d iters  %12.0f ns/op  %10.0f packets/sec\n",
				name, shards, r.N, float64(r.NsPerOp()), rate)
		}

		// Interpreter reference row: the tree-walking engine replaying the
		// program itself at the fate level (execution marks, no
		// serialization), sequential, no dedup — the before side of the
		// compiled-engine speedup, measured in the same run so the
		// comparison is machine-independent.
		interpOpts := profile.RunOptions{Shards: 1, Interpret: true, NoDedup: true}
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := profiler.RunWith(context.Background(), trace, interpOpts); err != nil {
					b.Fatal(err)
				}
			}
		})
		interpRate := replayRate(r, len(trace.Packets))
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name: "replay-interp", Workload: name, Parallelism: 1,
			Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
			PacketsPerSec: interpRate,
		})
		speedup := 0.0
		if interpRate > 0 {
			speedup = compiledP1 / interpRate
		}
		fmt.Printf("  replay-interp/%-6s %10d iters  %12.0f ns/op  %10.0f packets/sec  (compiled x%.1f)\n",
			name, r.N, float64(r.NsPerOp()), interpRate, speedup)
		if baselinePath != "" && speedup < minEngineSpeedup {
			return fmt.Errorf("%s: compiled replay only %.2fx the interpreter (floor %.1fx): %.0f vs %.0f packets/sec",
				name, speedup, minEngineSpeedup, compiledP1, interpRate)
		}

		var before, after int
		defaultPar := pool.Workers(0)
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := p2go.Optimize(prog, cfg, trace, p2go.Options{})
				if err != nil {
					b.Fatal(err)
				}
				before, after = res.StagesBefore(), res.StagesAfter()
			}
		})
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name: "optimize", Workload: name, Parallelism: defaultPar,
			Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
			StagesBefore: before, StagesAfter: after,
		})
		fmt.Printf("  optimize/%-11s %10d iters  %12.0f ns/op  stages %d -> %d\n",
			name, r.N, float64(r.NsPerOp()), before, after)
	}

	// Zipf flow-popularity family: a heavy-tailed TCP trace (20k packets,
	// ~1k distinct flows) through the stateless quickstart router, with
	// flow deduplication on and off. The dedup row replays O(unique flows)
	// representatives instead of O(packets), which is the effect the pair
	// quantifies; the rows share every other knob (compiled engine, one
	// shard) so the ratio isolates dedup.
	if only == "" || only == "zipf" {
		ran++
		w, err := workloads.Get("quickstart")
		if err != nil {
			return err
		}
		ztrace := trafficgen.ZipfTCPTrace(trafficgen.ZipfSpec{Seed: seed})
		profiler, err := newProfiler(w)
		if err != nil {
			return err
		}
		rates := map[bool]float64{}
		unique := 0
		for _, noDedup := range []bool{true, false} {
			noDedup := noDedup
			opts := profile.RunOptions{Shards: 1, NoDedup: noDedup}
			r := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pf, err := profiler.RunWith(context.Background(), ztrace, opts)
					if err != nil {
						b.Fatal(err)
					}
					if !noDedup && pf.Engine != nil {
						unique = pf.Engine.UniquePackets
					}
				}
			})
			rate := replayRate(r, len(ztrace.Packets))
			rates[noDedup] = rate
			rowName := "replay-zipf-dedup"
			if noDedup {
				rowName = "replay-zipf-nodedup"
			}
			out.Benchmarks = append(out.Benchmarks, BenchResult{
				Name: rowName, Workload: "zipf", Parallelism: 1,
				Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
				PacketsPerSec: rate,
			})
			fmt.Printf("  %-21s %10d iters  %12.0f ns/op  %10.0f packets/sec\n",
				rowName, r.N, float64(r.NsPerOp()), rate)
		}
		if rates[true] > 0 {
			fmt.Printf("  zipf flow dedup: %d unique of %d packets, x%.1f throughput\n",
				unique, len(ztrace.Packets), rates[false]/rates[true])
		}
	}

	// Fleet front end: expanding the fleet-64 ledger workload's 64
	// injections (48 natgre, 16 ex1, 400 packets each) into per-packet
	// network injections on one worker. What it costs should follow the
	// 25 600 packets used, not the 800 000 the 64 whole traces hold.
	if only == "" || only == "fleet-inject" {
		ran++
		spec := fleet.Spec{DeviceParallelism: 1}
		for i := 0; i < 64; i++ {
			wl := "natgre"
			if i%4 == 3 {
				wl = "ex1"
			}
			name := fmt.Sprintf("sw-%02d", i)
			spec.Devices = append(spec.Devices, fleet.DeviceSpec{Name: name, Workload: wl})
			spec.Injections = append(spec.Injections, fleet.InjectionSpec{
				Device: name, Workload: wl, Seed: seed + int64(i), Count: 400})
		}
		packets := 0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inj, err := fleet.BuildInjections(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				packets = len(inj)
			}
		})
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name: "build-injections", Workload: "fleet-64", Parallelism: 1,
			Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
			BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Printf("  build-injections      %10d iters  %12.0f ns/op  %10d B/op  %8d allocs/op  (%d packets)\n",
			r.N, float64(r.NsPerOp()), r.AllocedBytesPerOp(), r.AllocsPerOp(), packets)
	}

	if ran == 0 {
		return fmt.Errorf("no benchmark workload matches %q", only)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)

	if baselinePath != "" {
		return checkBaseline(out, baselinePath)
	}
	return nil
}

// newProfiler prepares a workload's program and takes one profiler over
// the plan, so the replay rows time RunWith alone.
func newProfiler(w workloads.Workload) (*profile.Profiler, error) {
	prep, err := profile.PrepareContext(context.Background(), p4.MustParse(w.Source), w.Config())
	if err != nil {
		return nil, err
	}
	return prep.Profiler(), nil
}

// replayRate converts a replay benchmark into packets/sec.
func replayRate(r testing.BenchmarkResult, packets int) float64 {
	if r.T <= 0 {
		return 0
	}
	return float64(r.N) * float64(packets) / r.T.Seconds()
}

// checkBaseline compares every throughput row against the committed
// baseline and fails on a >30% regression. Rows absent from the baseline
// (new benchmarks, different machine class) are skipped; throughput is
// machine-dependent, so the check only guards against relative collapse.
func checkBaseline(out BenchFile, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base BenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	key := func(b BenchResult) string {
		return fmt.Sprintf("%s/%s/p%d", b.Name, b.Workload, b.Parallelism)
	}
	want := map[string]float64{}
	for _, b := range base.Benchmarks {
		if b.PacketsPerSec > 0 {
			want[key(b)] = b.PacketsPerSec
		}
	}
	var failures []string
	for _, b := range out.Benchmarks {
		if b.PacketsPerSec <= 0 {
			continue
		}
		baseline, ok := want[key(b)]
		if !ok {
			continue
		}
		floor := baseline * (1 - maxRegression)
		status := "ok"
		if b.PacketsPerSec < floor {
			status = "REGRESSED"
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f packets/sec vs baseline %.0f (floor %.0f)",
				key(b), b.PacketsPerSec, baseline, floor))
		}
		fmt.Printf("  baseline %-24s %10.0f vs %10.0f  %s\n",
			key(b), b.PacketsPerSec, baseline, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("replay throughput regressed >%.0f%%:\n  %s",
			100*maxRegression, failures[0])
	}
	return nil
}
