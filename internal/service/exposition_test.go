package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition line: name, label keys in the order
// they appeared, label values by key, and the sample value.
type promSample struct {
	name      string
	labelKeys []string
	labels    map[string]string
	value     float64
}

// promFamily groups one metric family's declared metadata and samples.
type promFamily struct {
	help    string
	typ     string
	samples []promSample
}

// parseProm parses the Prometheus text exposition format strictly enough
// for the invariants the daemon promises: every sample belongs to a family
// whose HELP and TYPE were declared before it.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	family := func(name string) *promFamily {
		f := families[name]
		if f == nil {
			f = &promFamily{}
			families[name] = f
		}
		return f
	}
	// _bucket/_sum/_count samples belong to the histogram family they
	// suffix.
	base := func(name string) string {
		if f := families[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")]; f != nil && f.typ == "histogram" {
			return strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
		}
		return name
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			family(name).help = help
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			family(name).typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		s := promSample{labels: map[string]string{}}
		nameAndLabels, valueText, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		s.name = nameAndLabels
		if open := strings.IndexByte(nameAndLabels, '{'); open >= 0 {
			if !strings.HasSuffix(nameAndLabels, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			s.name = nameAndLabels[:open]
			for _, pair := range strings.Split(nameAndLabels[open+1:len(nameAndLabels)-1], ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				unq, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("line %d: label value %s not quoted: %v", ln+1, v, err)
				}
				s.labelKeys = append(s.labelKeys, k)
				s.labels[k] = unq
			}
		}
		v, err := strconv.ParseFloat(valueText, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valueText, err)
		}
		s.value = v
		f := families[base(s.name)]
		if f == nil || f.help == "" || f.typ == "" {
			t.Errorf("line %d: sample %s has no preceding HELP+TYPE", ln+1, s.name)
			f = family(base(s.name))
		}
		f.samples = append(f.samples, s)
	}
	return families
}

func fetchMetrics(t *testing.T, base string) map[string]*promFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body))
}

// TestMetricsExposition runs one optimize job and then verifies the
// /metrics output wholesale: every family carries HELP and TYPE, every
// label set is sorted by key, histogram buckets are cumulative with
// consistent _count, and at least three histogram families actually
// observed something.
func TestMetricsExposition(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 4})
	st, _ := postJob(t, srv.URL, JobSpec{Kind: "optimize", Workload: "natgre"})
	if st.ID == "" {
		t.Fatal("submit failed")
	}
	if got := awaitJob(t, srv.URL, st.ID); got.State != StateDone {
		t.Fatalf("job state = %s (%s)", got.State, got.Error)
	}

	families := fetchMetrics(t, srv.URL)
	for name, f := range families {
		if f.help == "" {
			t.Errorf("family %s has no HELP", name)
		}
		switch f.typ {
		case "counter", "gauge", "histogram":
		default:
			t.Errorf("family %s has TYPE %q", name, f.typ)
		}
		for _, s := range f.samples {
			if !sort.StringsAreSorted(s.labelKeys) {
				t.Errorf("sample %s labels not sorted: %v", s.name, s.labelKeys)
			}
		}
	}

	// Histogram invariants: cumulative buckets ending at +Inf == _count,
	// per label set.
	nonZero := 0
	for name, f := range families {
		if f.typ != "histogram" {
			continue
		}
		series := func(s promSample) string {
			var parts []string
			for _, k := range s.labelKeys {
				if k != "le" {
					parts = append(parts, k+"="+s.labels[k])
				}
			}
			return strings.Join(parts, ",")
		}
		buckets := map[string][]promSample{}
		counts := map[string]float64{}
		for _, s := range f.samples {
			switch s.name {
			case name + "_bucket":
				buckets[series(s)] = append(buckets[series(s)], s)
			case name + "_count":
				counts[series(s)] = s.value
			}
		}
		if len(buckets) == 0 {
			t.Errorf("histogram %s has no _bucket samples", name)
		}
		for key, bs := range buckets {
			prev := -1.0
			for _, b := range bs {
				if b.value < prev {
					t.Errorf("%s{%s}: bucket counts not cumulative", name, key)
				}
				prev = b.value
			}
			last := bs[len(bs)-1]
			if last.labels["le"] != "+Inf" {
				t.Errorf("%s{%s}: last bucket le=%q, want +Inf", name, key, last.labels["le"])
			}
			if last.value != counts[key] {
				t.Errorf("%s{%s}: +Inf bucket %g != _count %g", name, key, last.value, counts[key])
			}
			if counts[key] > 0 {
				nonZero++
				break // one non-zero series is enough per family
			}
		}
	}
	if nonZero < 3 {
		t.Errorf("only %d histogram families observed samples after an optimize job, want >= 3", nonZero)
	}

	// The pre-histogram sum counters are gone: the histograms' _sum series
	// carry the same numbers. The CPU total is not one of them.
	for name := range families {
		if strings.HasSuffix(name, "_seconds_total") && name != "p2god_job_cpu_seconds_total" {
			t.Errorf("legacy sum counter %s still exposed", name)
		}
	}

	// The cluster counters are exposed (zero-valued) even on a standalone
	// daemon, so dashboards keyed on them never see a missing series.
	for _, name := range []string{
		"p2god_cluster_takeover_jobs_total",
		"p2god_cluster_fenced_commits_total",
		"p2god_cluster_lease_renewals_total",
		"p2god_cluster_lease_renew_failures_total",
		"p2god_cluster_lease_acquire_failures_total",
		"p2god_profile_captures_total",
		"p2god_profile_capture_errors_total",
	} {
		f := families[name]
		if f == nil || f.typ != "counter" || len(f.samples) == 0 {
			t.Errorf("counter %s missing from exposition", name)
		}
	}

	// Resource attribution: the optimize job must have deposited real
	// values in the new families.
	for name, want := range map[string]float64{
		"p2god_job_allocs_total":      1,
		"p2god_job_alloc_bytes_total": 1,
		"p2god_job_cpu_seconds_total": 0, // CPU can legitimately round to ~0 on a fast run
	} {
		f := families[name]
		if f == nil || f.typ != "counter" || len(f.samples) != 1 {
			t.Errorf("counter %s missing from exposition", name)
			continue
		}
		if got := f.samples[0].value; got < want {
			t.Errorf("%s = %g, want >= %g after an optimize job", name, got, want)
		}
	}
	for _, name := range []string{"p2god_job_cpu_seconds", "p2god_job_heap_peak_bytes"} {
		f := families[name]
		if f == nil || f.typ != "histogram" {
			t.Errorf("histogram %s missing from exposition", name)
			continue
		}
		count := 0.0
		for _, s := range f.samples {
			if s.name == name+"_count" {
				count += s.value
			}
		}
		if count < 1 {
			t.Errorf("histogram %s observed %g samples, want >= 1", name, count)
		}
	}
	if f := families["p2god_job_cpu_seconds"]; f != nil {
		found := false
		for _, s := range f.samples {
			if s.labels["kind"] == "optimize" {
				found = true
			}
		}
		if !found {
			t.Error(`p2god_job_cpu_seconds lacks the kind="optimize" series`)
		}
	}
}

// TestJobTraceEndpoint submits a job and fetches its execution trace as
// Chrome trace-event JSON: non-empty, complete events only, a "job" root
// lane, and the optimizer pipeline's phase spans present.
func TestJobTraceEndpoint(t *testing.T) {
	traceDir := t.TempDir()
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 4, TraceDir: traceDir})
	st, _ := postJob(t, srv.URL, JobSpec{Kind: "optimize", Workload: "natgre"})
	if got := awaitJob(t, srv.URL, st.ID); got.State != StateDone {
		t.Fatalf("job state = %s (%s)", got.State, got.Error)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	names := map[string]bool{}
	prev := -1.0
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" {
			t.Errorf("event %s has ph=%q, want X", e.Name, e.Phase)
		}
		if e.TS < prev {
			t.Errorf("event %s ts=%g not monotonic (prev %g)", e.Name, e.TS, prev)
		}
		prev = e.TS
		names[e.Name] = true
	}
	for _, want := range []string{"job", "job.queue-wait", "optimize",
		"phase2.remove-dependencies", "phase3.reduce-memory", "phase4.offload"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %d distinct names)", want, len(names))
		}
	}

	if resp, err := http.Get(srv.URL + "/jobs/j-does-not-exist/trace"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job trace: %s, want 404", resp.Status)
		}
		resp.Body.Close()
	}

	// -trace-dir persisted the same trace to disk.
	data, err := os.ReadFile(filepath.Join(traceDir, st.ID+".trace.json"))
	if err != nil {
		t.Fatalf("persisted trace: %v", err)
	}
	if !json.Valid(data) {
		t.Error("persisted trace is not valid JSON")
	}
}
