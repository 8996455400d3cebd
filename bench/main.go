// Command bench is the p2go performance ledger: six named workloads, the
// end-to-end figures a user of the library or of p2god feels, and a traced
// pass that prices every layer underneath. README.md is the glossary;
// BENCHMARK.json at the repository root is the contract a driver runs it
// under:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints, as the last line of standard output, one JSON object with
// the run's verdict and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workloads string
	seed      int64
	seconds   float64
	// trace selects the pass: 0 the timed pass and the end-to-end metrics,
	// 1 the timed and the traced pass and the per-layer metrics, -1 both
	// sets.
	trace    int
	dir      string
	traceDir string
	out      string
	// setups is how often a run sets its workload up when it reports
	// setup_s, probeReps how often it repeats each direct layer call; tests
	// lower both.
	setups    int
	probeReps int
}

func main() {
	var o options
	flag.StringVar(&o.workloads, "workload", "", "comma-separated workloads to run (default all six)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long each workload's timed pass measures")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "tmp"), "where the daemon workloads put journal, spill and lease files (its filesystem sets the fsync cost)")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where the traced pass writes its Chrome trace JSON")
	flag.StringVar(&o.out, "out", "", "append the runs to this JSON file, for -compare")
	compare := flag.Bool("compare", false, "compare result files: bench -compare base.json other.json [more.json...]")
	flag.Parse()
	o.setups, o.probeReps = setupRepeats, probeRepeats

	if *compare {
		if err := compareFiles(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures the selected workloads one after another and reports
// whether every one of them was correct.
func run(o options) (bool, error) {
	selected, err := selectWorkloads(o.workloads)
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return false, err
	}
	env := stampEnv()
	fmt.Printf("p2go bench: %s\n", env)
	allCorrect := true
	var runs []RunResult
	for i := range selected {
		res, err := measure(&selected[i], o)
		if err != nil {
			return false, fmt.Errorf("%s: %w", selected[i].name, err)
		}
		res.Env = env
		runs = append(runs, res)
		allCorrect = allCorrect && res.Correct
		printRun(&selected[i], res)
	}
	if o.out != "" {
		if err := appendRuns(o.out, runs); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return allWorkloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range allWorkloads {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// Env stamps a result with what it ran on, so a row like "2 shards slower
// than 1" reads as "1-CPU box".
type Env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	PGO        string `json:"pgo"`
}

func (e Env) String() string {
	return fmt.Sprintf("%s %s/%s nproc=%d GOMAXPROCS=%d commit=%s pgo=%s",
		e.Go, e.OS, e.Arch, e.NumCPU, e.GOMAXPROCS, e.Commit, e.PGO)
}

func stampEnv() Env {
	e := Env{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: "unknown",
		// The repository's default.pgo sits beside the root package and
		// cmd/p2god; the go tool applies a default.pgo only to a main
		// package in its own directory, so it does not reach ./bench.
		PGO: "off",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "-pgo":
				e.PGO = s.Value
			}
		}
	}
	return e
}

// RunResult is one workload measured once.
type RunResult struct {
	Env       Env      `json:"env"`
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Rounds    int      `json:"rounds"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []Metric `json:"metrics"`
	// Layers is the traced pass's layer table; RootMS the total of its root
	// spans, which the rows' self times must add up to.
	Layers []layerRow `json:"layers,omitempty"`
	RootMS float64    `json:"root_ms,omitempty"`
}

// measure sets a workload up, runs its timed pass and, when asked, its
// traced pass, and folds the samples into metrics.
func measure(w *workload, o options) (RunResult, error) {
	res := RunResult{Workload: w.name, Seed: o.seed, Seconds: o.seconds}
	t := newTally()
	e := &env{seed: o.seed, dir: o.dir, probeReps: o.probeReps}

	// Set up. A run that reports setup_s sets up several times and reports
	// the median; the last instance is the one measured.
	setups := o.setups
	if o.trace == 1 {
		setups = 1
	}
	var inst instance
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return res, err
			}
		}
		e.next = 0
		start := time.Now()
		var err error
		if inst, err = w.setup(e, w, t); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		t.add("setup_s", "", time.Since(start).Seconds())
	}

	// Timed pass: hooks and spans off.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || res.Rounds == 0 {
		inst.round(t, nil)
		res.Rounds++
	}
	runtime.ReadMemStats(&after)
	if ops := float64(t.attempted); ops > 0 {
		t.add("runtime.alloc_mb_per_op", "", float64(after.TotalAlloc-before.TotalAlloc)/ops/(1<<20))
		t.add("runtime.allocs_per_op", "", float64(after.Mallocs-before.Mallocs)/ops)
	}
	t.add("runtime.gc_cycles", "", float64(after.NumGC-before.NumGC))
	t.add("runtime.heap_peak_mb", "", float64(after.HeapSys)/(1<<20))
	specs := endToEnd
	if o.trace != 0 {
		var err error
		if res.Layers, res.RootMS, err = tracedPass(w, inst, t, o.traceDir); err != nil {
			inst.close()
			return res, err
		}
		specs = perLayer
		if o.trace < 0 {
			specs = append(append([]spec(nil), endToEnd...), perLayer...)
		}
	}
	res.Metrics = t.series.fold(specs)
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.failures
	res.Correct = t.failed == 0
	return res, inst.close()
}

// tracedPass runs the workload's fixed number of traced rounds and its
// direct layer calls under one recorder, prints nothing, and writes the
// spans out once it is done. Untraced glue in the benchmark's own op code
// above 5% of the job spans fails the run: the table would not explain the
// op.
func tracedPass(w *workload, inst instance, t *tally, traceDir string) ([]layerRow, float64, error) {
	tr := newRecorder()
	for r := 0; r < w.tracedRounds; r++ {
		inst.round(t, tr)
	}
	inst.probes(t, tr)
	rows, rootTotal := tr.layerTable()
	pct := 100 * tr.glue()
	t.add("trace.root_self_pct", "", pct)
	if pct > 5 {
		t.op("traced pass", fmt.Errorf("%.1f%% of the job spans is untraced glue (limit 5%%)", pct))
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, 0, err
	}
	f, err := os.Create(filepath.Join(traceDir, w.name+".trace.json"))
	if err != nil {
		return nil, 0, err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	return rows, rootTotal, f.Close()
}

// printRun prints one workload's result for a human, then the one JSON line
// a driver reads.
func printRun(w *workload, res RunResult) {
	fmt.Printf("\n== %s (seed %d, %d rounds in %.0fs) — %s\n", w.name, res.Seed, res.Rounds, res.Seconds, w.why)
	fmt.Printf("   cold op: %s\n   warm op: %s\n", w.cold, w.warm)
	fmt.Printf("   ops %d, failed_ops %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	for _, m := range res.Metrics {
		if m.Samples == 0 {
			continue // a layer this workload never enters
		}
		fmt.Printf("  %-34s %14.4f %-9s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		if len(m.Classes) > 1 {
			for _, class := range sortedKeys(m.Classes) {
				q := m.Classes[class]
				fmt.Printf("      %-30s %14.4f  [%.4f, %.4f] n=%d\n", class, q.Median, q.Q1, q.Q3, q.N)
			}
		}
	}
	if len(res.Layers) > 0 {
		fmt.Printf("  layer table (traced pass; self = duration minus children):\n")
		printLayerTable(os.Stdout, res.Layers, res.RootMS)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Printf("%s\n", b)
}

// ResultFile is what -out writes and -compare reads: every run appended to
// the file so far.
type ResultFile struct {
	Runs []RunResult `json:"runs"`
}

func readResults(path string) (ResultFile, error) {
	var f ResultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendRuns(path string, runs []RunResult) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
