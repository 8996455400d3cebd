// Self-hosted PGO (-pgo): the optimizer takes its own medicine. The
// bundled workloads run under CPU profiling, the per-workload pprof
// files merge into one default.pgo (committed at the repo root and in
// cmd/p2god, where `go build -pgo=auto` picks it up), the tree is
// rebuilt with the profile, and a before/after replay benchmark pair is
// appended to BENCH_p2go.json — the same capture→merge→rebuild loop
// P2GO applies to P4 programs, closed over the daemon itself.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"p2go"
	"p2go/internal/fleet"
	"p2go/internal/profile"
	"p2go/internal/service"
	"p2go/internal/workloads"
)

// pgoOptions collects the -pgo* flags.
type pgoOptions struct {
	short bool   // CI smoke: shorter captures, smaller fleet
	out   string // merged profile destination (the committed default.pgo)
	dir   string // per-workload capture directory
	bench string // BENCH_p2go.json to append before/after rows to ("" skips)
	seed  int64
}

// pgoCaptureSeconds is how long each workload runs under the CPU
// profiler; at the default 100Hz sampling that is several hundred
// samples per workload.
func (o pgoOptions) captureSeconds() time.Duration {
	if o.short {
		return 2 * time.Second
	}
	return 6 * time.Second
}

func (o pgoOptions) fleetDevices() int {
	if o.short {
		return 4
	}
	return 8
}

// runPGO drives the whole loop: capture, merge, rebuild, measure.
func runPGO(o pgoOptions) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if o.dir == "" {
		o.dir = filepath.Join(root, "pgo-profiles")
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(root, "default.pgo")
	}

	// 1. Capture: each bundled workload under its own CPU profile, the
	// dtail-style per-command capture (doc/pgo_implementation.md): distinct
	// workloads exercise distinct hot paths, and merging weighted captures
	// beats profiling one unrepresentative run.
	captures, err := capturePGOWorkloads(o)
	if err != nil {
		return err
	}

	// 2. Merge with the toolchain's own pprof (offline, no extra deps):
	// `go tool pprof -proto a b c` sums the samples into one profile.
	merged, err := mergeProfiles(captures)
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, merged, 0o644); err != nil {
		return err
	}
	fmt.Printf("  merged %d captures -> %s (%d bytes)\n", len(captures), o.out, len(merged))
	// -pgo=auto only finds default.pgo in a main package's own directory;
	// a copy next to cmd/p2god makes plain `go build ./cmd/p2god` profile-
	// guided with no flags at all.
	daemonPGO := filepath.Join(root, "cmd", "p2god", "default.pgo")
	if err := os.WriteFile(daemonPGO, merged, 0o644); err != nil {
		return err
	}
	fmt.Printf("  copied -> %s (picked up by 'go build -pgo=auto ./cmd/p2god')\n", daemonPGO)

	// 3. Rebuild the whole tree with the profile — the acceptance gate CI
	// re-runs — so a profile the compiler cannot ingest fails here, not in
	// some later build.
	for _, args := range [][]string{
		{"build", "-pgo=auto", "./..."},
		{"build", "-pgo=" + o.out, "./..."},
	} {
		if out, err := runGo(root, args...); err != nil {
			return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	fmt.Println("  go build -pgo=auto ./... ok; go build -pgo=" + filepath.Base(o.out) + " ./... ok")

	// 4. A/B: build the experiments binary twice (PGO off / on) and run
	// the replay benchmark in each, so the measured delta isolates the
	// compiler's profile-guided decisions.
	before, after, err := abReplayBench(root, o.out)
	if err != nil {
		return err
	}
	fmt.Println("  replay throughput, PGO off vs on:")
	fmt.Printf("  %-12s %14s %14s %8s\n", "workload", "off (pkt/s)", "on (pkt/s)", "delta")
	for i, b := range before.Benchmarks {
		a := after.Benchmarks[i]
		delta := 0.0
		if b.PacketsPerSec > 0 {
			delta = (a.PacketsPerSec - b.PacketsPerSec) / b.PacketsPerSec * 100
		}
		fmt.Printf("  %-12s %14.0f %14.0f %+7.1f%%\n",
			b.Workload, b.PacketsPerSec, a.PacketsPerSec, delta)
	}

	// 5. Record the pair in the committed bench file. The rows use their
	// own name family (pgo-replay-*), so the -bench-baseline regression
	// guard — which keys on name/workload/parallelism — never confuses
	// them with the plain replay rows.
	if o.bench != "" {
		if err := appendPGORows(o.bench, before, after); err != nil {
			return err
		}
		fmt.Println("  appended before/after rows to", o.bench)
	}
	return nil
}

// pgoWorkloads are the capture scenarios: the paper's running example,
// the phase-ordering workload under its reordered schedule, and a small
// network-wide job through a real in-process manager (exercising the
// service/fleet dispatch paths single-workload runs never touch).
func capturePGOWorkloads(o pgoOptions) ([]string, error) {
	type scenario struct {
		name string
		run  func(deadline time.Time) error
	}
	optimizeLoop := func(workload string, passes []string) func(time.Time) error {
		return func(deadline time.Time) error {
			w, err := workloads.Get(workload)
			if err != nil {
				return err
			}
			prog, err := p2go.ParseProgram(w.Source)
			if err != nil {
				return err
			}
			trace, err := w.Trace(o.seed)
			if err != nil {
				return err
			}
			for time.Now().Before(deadline) {
				if _, err := p2go.Optimize(prog, w.Config(), trace, p2go.Options{Passes: passes}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	scenarios := []scenario{
		{"ex1", optimizeLoop("ex1", nil)},
		{"l2l3_acl", optimizeLoop("l2l3_acl", []string{"phase4", "phase2", "phase3"})},
		{"fleet-short", func(deadline time.Time) error {
			m := service.NewManager(service.ManagerConfig{Workers: 2, QueueDepth: 8})
			m.Start()
			defer m.Drain(30 * time.Second)
			spec := fleet.Synthetic("quickstart", o.fleetDevices(), o.seed, fleetPacketsPerDevice)
			for time.Now().Before(deadline) {
				if _, err := runFleetJob(m, spec); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	var paths []string
	for _, sc := range scenarios {
		path := filepath.Join(o.dir, sc.name+".pprof")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		start := time.Now()
		runErr := sc.run(start.Add(o.captureSeconds()))
		pprof.StopCPUProfile()
		if cerr := f.Close(); runErr == nil {
			runErr = cerr
		}
		if runErr != nil {
			return nil, fmt.Errorf("capture %s: %w", sc.name, runErr)
		}
		fi, _ := os.Stat(path)
		fmt.Printf("  captured %-12s %8.1fs -> %s (%d bytes)\n",
			sc.name, time.Since(start).Seconds(), path, fi.Size())
		paths = append(paths, path)
	}
	return paths, nil
}

// mergeProfiles sums the captures with `go tool pprof -proto`.
func mergeProfiles(paths []string) ([]byte, error) {
	args := append([]string{"tool", "pprof", "-proto"}, paths...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -proto: %v\n%s", err, errb.String())
	}
	if out.Len() == 0 {
		return nil, fmt.Errorf("go tool pprof -proto produced an empty profile")
	}
	return out.Bytes(), nil
}

// abReplayBench builds the experiments binary without and with the
// profile, runs the hidden -pgo-replay-bench mode in each, and returns
// the two measurement files.
func abReplayBench(root, pgoFile string) (before, after BenchFile, err error) {
	tmp, err := os.MkdirTemp("", "p2go-pgo-*")
	if err != nil {
		return before, after, err
	}
	defer os.RemoveAll(tmp)
	builds := []struct {
		label, pgoFlag, bin, out string
	}{
		{"off", "-pgo=off", filepath.Join(tmp, "exp-off"), filepath.Join(tmp, "off.json")},
		{"on", "-pgo=" + pgoFile, filepath.Join(tmp, "exp-on"), filepath.Join(tmp, "on.json")},
	}
	results := make([]BenchFile, 2)
	for i, b := range builds {
		if out, err := runGo(root, "build", b.pgoFlag, "-o", b.bin, "./cmd/experiments"); err != nil {
			return before, after, fmt.Errorf("build (pgo %s): %v\n%s", b.label, err, out)
		}
		cmd := exec.Command(b.bin, "-pgo-replay-bench", b.out)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return before, after, fmt.Errorf("replay bench (pgo %s): %v\n%s", b.label, err, out)
		}
		data, err := os.ReadFile(b.out)
		if err != nil {
			return before, after, err
		}
		if err := json.Unmarshal(data, &results[i]); err != nil {
			return before, after, fmt.Errorf("replay bench (pgo %s): %w", b.label, err)
		}
	}
	if len(results[0].Benchmarks) != len(results[1].Benchmarks) {
		return before, after, fmt.Errorf("A/B row mismatch: %d vs %d",
			len(results[0].Benchmarks), len(results[1].Benchmarks))
	}
	return results[0], results[1], nil
}

// pgoReplayWorkloads are the A/B measurement targets: the paper's
// running example and the pass-ordering workload — both dominated by
// the dispatch-heavy simulator hot path PGO inlining targets.
var pgoReplayWorkloads = []string{"ex1", "l2l3_acl"}

// runPGOReplayBench is the hidden child mode (-pgo-replay-bench <out>):
// sequential replay benchmarks, written as a BenchFile so the parent
// can diff two binaries' runs row by row.
func runPGOReplayBench(path string, seed int64) error {
	out := BenchFile{Seed: seed}
	for _, name := range pgoReplayWorkloads {
		w, err := workloads.Get(name)
		if err != nil {
			return err
		}
		trace, err := w.Trace(seed)
		if err != nil {
			return err
		}
		profiler, err := newProfiler(w)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := profiler.RunWith(context.Background(), trace, profile.RunOptions{Shards: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		out.Benchmarks = append(out.Benchmarks, BenchResult{
			Name: "pgo-replay", Workload: name, Parallelism: 1,
			Iterations: r.N, NsPerOp: float64(r.NsPerOp()),
			PacketsPerSec: replayRate(r, len(trace.Packets)),
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendPGORows rewrites benchPath with the A/B pair appended: prior
// pgo-replay-* rows are dropped first, so re-running -pgo replaces the
// measurement instead of accreting stale pairs.
func appendPGORows(benchPath string, before, after BenchFile) error {
	var file BenchFile
	if data, err := os.ReadFile(benchPath); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s: %w", benchPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	kept := file.Benchmarks[:0]
	for _, b := range file.Benchmarks {
		if !strings.HasPrefix(b.Name, "pgo-replay") {
			kept = append(kept, b)
		}
	}
	file.Benchmarks = kept
	rename := func(rows []BenchResult, name string) {
		for _, b := range rows {
			b.Name = name
			file.Benchmarks = append(file.Benchmarks, b)
		}
	}
	rename(before.Benchmarks, "pgo-replay-before")
	rename(after.Benchmarks, "pgo-replay-after")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchPath, append(data, '\n'), 0o644)
}

// moduleRoot locates the repo root (where go.mod and the committed
// default.pgo live) so -pgo works from any working directory.
func moduleRoot() (string, error) {
	out, err := runGo("", "env", "GOMOD")
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v\n%s", err, out)
	}
	gomod := strings.TrimSpace(out)
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (run from the p2go repo)")
	}
	return filepath.Dir(gomod), nil
}

// runGo runs the go tool in dir and returns its combined output.
func runGo(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}
