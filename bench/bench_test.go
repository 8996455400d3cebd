package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json, the file a driver reads the benchmark from.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// smoke is the fastest configuration that still runs every code path: one
// timed round, one traced round, each layer called once.
func smoke(t *testing.T) options {
	return options{seed: 1, seconds: 0, trace: -1, setups: 1, probeReps: 1,
		dir: t.TempDir(), traceDir: t.TempDir()}
}

func smokeRun(t *testing.T, w workload, o options) RunResult {
	t.Helper()
	w.tracedRounds = 1
	res, err := measure(&w, o)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d ops failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

func TestContractMatchesSpecs(t *testing.T) {
	c := readContract(t)
	names := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if !names.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract's limits", w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i, sp := range want {
			if got[i] != (contractMetric{sp.name, sp.unit, sp.better, sp.bound}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], sp)
			}
			if !names.MatchString(sp.name) {
				t.Errorf("metric name %q outside the contract's limits", sp.name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != lower {
		t.Errorf("the contract wants setup_s in s, lower is better; have %+v", endToEnd[0])
	}
}

// TestEveryWorkloadEmitsEveryMetric runs all six workloads end to end.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	// Differences of two measured times, which noise can push below zero.
	signed := map[string]bool{"trace.overhead_pct": true, "profile.collect_ns_per_pkt": true}
	want := append(append([]spec(nil), endToEnd...), perLayer...)
	for _, w := range allWorkloads {
		o := smoke(t)
		res := smokeRun(t, w, o)
		if len(res.Metrics) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(want))
		}
		for i, m := range res.Metrics {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s: metric %d is %s (%s), want %s (%s)", w.name, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !signed[m.Name]) {
				t.Errorf("%s: %s = %v", w.name, m.Name, m.Value)
			}
		}
		for _, sp := range endToEnd {
			if v := metricValue(t, res, sp.name); v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, sp.name, v)
			}
		}
		self := 0.0
		for _, row := range res.Layers {
			self += row.Self
		}
		if res.RootMS <= 0 || math.Abs(self-res.RootMS) > 0.05*res.RootMS {
			t.Errorf("%s: layer self times sum to %.3f ms, roots to %.3f ms", w.name, self, res.RootMS)
		}
		if pct := metricValue(t, res, "trace.root_self_pct"); pct > 5 {
			t.Errorf("%s: %.1f%% of the job spans is untraced glue", w.name, pct)
		}
		if _, err := os.Stat(filepath.Join(o.traceDir, w.name+".trace.json")); err != nil {
			t.Errorf("%s: no Chrome trace: %v", w.name, err)
		}
	}
}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	ws, err := selectWorkloads(name)
	if err != nil {
		t.Fatal(err)
	}
	return ws[0]
}

func metricValue(t *testing.T, res RunResult, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s: no metric %s", res.Workload, name)
	return 0
}

// TestCountsRepeat: the counts a traced pass reports are a function of the
// seed alone.
func TestCountsRepeat(t *testing.T) {
	optimize := workloadNamed(t, "stateless-optimize")
	optimize.programs = []string{"natgre", "quickstart"} // the two cheapest
	fleets := workloadNamed(t, "fleet-64")
	for _, tc := range []struct {
		w      workload
		counts []string
	}{
		{optimize, []string{"core.stages_saved", "tofino.compile_calls", "profile.replay_calls", "core.observations"}},
		{fleets, []string{"core.stages_saved", "fleet.compile_misses", "fleet.profile_misses"}},
	} {
		a, b := smokeRun(t, tc.w, smoke(t)), smokeRun(t, tc.w, smoke(t))
		for _, name := range tc.counts {
			va, vb := metricValue(t, a, name), metricValue(t, b, name)
			if va != vb || va == 0 {
				t.Errorf("%s: %s = %v then %v; want the same non-zero count", tc.w.name, name, va, vb)
			}
		}
	}
}

// TestCorruptedReferenceFails: an op whose profile differs from the
// oracle's by one packet is a failed op.
func TestCorruptedReferenceFails(t *testing.T) {
	w := workloadNamed(t, "profile-zipf")
	inst, err := setupProfile(&env{seed: 1, dir: t.TempDir(), probeReps: 1}, &w, newTally())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	good := newTally()
	inst.round(good, nil)
	if good.failed != 0 || good.attempted == 0 {
		t.Fatalf("intact references: %d of %d ops failed: %v", good.failed, good.attempted, good.failures)
	}
	for _, refs := range inst.(*profileRun).refs {
		for _, ref := range refs {
			ref.TotalPackets++
		}
	}
	bad := newTally()
	inst.round(bad, nil)
	if bad.failed == 0 {
		t.Fatalf("corrupted references: none of %d ops failed", bad.attempted)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		var f ResultFile
		for _, v := range values {
			f.Runs = append(f.Runs, RunResult{Workload: "w", Metrics: []Metric{
				{Name: "op_ms", Unit: "ms", Better: lower, Bound: 0.10, Value: v},
			}})
		}
		path := filepath.Join(dir, name)
		if err := appendRuns(path, f.Runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 100, 101, 99, 100, 102)
	for _, tc := range []struct {
		name    string
		values  []float64
		verdict string
		fails   bool
	}{
		{"same.json", []float64{101, 100, 99, 102, 100}, "within the 10% bound", false},
		{"slow.json", []float64{120, 121, 119, 120, 122}, "REGRESSED", true},
		{"noisy.json", []float64{80, 100, 120, 140, 90}, "unresolved", false},
		{"fast-noisy.json", []float64{40, 60, 80, 50, 70}, "within the 10% bound", false},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, []string{base, write(tc.name, tc.values...)})
		if (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.verdict, out.String())
		}
	}
}
