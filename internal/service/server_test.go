package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p2go/internal/report"
)

// newTestServer boots a real manager (no stubs) behind httptest.
func newTestServer(t *testing.T, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	return newServerOn(t, m), m
}

// newServerOn starts m — built by the caller, so it can stub execFn first —
// and serves it; the cleanup stops both.
func newServerOn(t *testing.T, m *Manager) *httptest.Server {
	t.Helper()
	m.Start()
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Drain(5 * time.Second)
	})
	return srv
}

func postJob(t *testing.T, base string, spec JobSpec) (JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &st)
	return st, resp
}

func getJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %s", id, resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func awaitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// TestServeOptimizeEx1EndToEnd is the acceptance criterion: an ex1
// optimize job served over HTTP (submit -> poll -> observations with the
// paper's 8 -> 7 -> 6 -> 3 stage history), then an identical resubmission
// completing via a cache hit that shows up in /metrics.
func TestServeOptimizeEx1EndToEnd(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 2, QueueDepth: 8})

	st, resp := postJob(t, srv.URL, JobSpec{Kind: "optimize", Workload: "ex1"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit status = %+v", st)
	}

	final := awaitJob(t, srv.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if final.Cached {
		t.Error("first run must not be served from cache")
	}
	var res report.JobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	var stages []int
	for _, h := range res.History {
		stages = append(stages, h.Stages)
	}
	if want := []int{8, 7, 6, 3}; fmt.Sprint(stages) != fmt.Sprint(want) {
		t.Errorf("stage history = %v, want %v (Table 2)", stages, want)
	}
	if len(res.Observations) == 0 {
		t.Error("no observations in the result")
	}
	if res.OptimizedP4 == "" {
		t.Error("result lacks the emitted P4")
	}
	if res.Profile == nil || res.Profile.TotalPackets == 0 {
		t.Error("result lacks the Phase 1 profile")
	}

	// Identical resubmission: must complete via a job-cache hit.
	st2, _ := postJob(t, srv.URL, JobSpec{Kind: "optimize", Workload: "ex1"})
	final2 := awaitJob(t, srv.URL, st2.ID)
	if final2.State != StateDone {
		t.Fatalf("resubmission ended %s: %s", final2.State, final2.Error)
	}
	if !final2.Cached {
		t.Error("identical resubmission was not served from the cache")
	}
	if !bytes.Equal(final.Result, final2.Result) {
		t.Error("cached result differs from the original")
	}

	// The hit must be observable in /metrics. A job's terminal state is
	// published before its finished counter moves, so give the counter a
	// moment to follow the state the poll above saw.
	metrics := getBody(t, srv.URL+"/metrics")
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline) &&
		!strings.Contains(metrics, `p2god_jobs_finished_total{outcome="done"} 2`); {
		time.Sleep(5 * time.Millisecond)
		metrics = getBody(t, srv.URL+"/metrics")
	}
	if !strings.Contains(metrics, `p2god_cache_hits_total{kind="job"} 1`) {
		t.Errorf("metrics lack the job cache hit:\n%s", grepLines(metrics, "p2god_cache"))
	}
	for _, want := range []string{
		"p2god_jobs_submitted_total 2",
		`p2god_jobs_finished_total{outcome="done"} 2`,
		`p2god_phase_duration_seconds_sum{phase="removing-dependencies"}`,
		"p2god_replayed_packets_total",
		"p2god_replay_packets_per_second",
		"p2god_cache_hit_ratio",
		"p2god_jobs_queued 0",
		"p2god_jobs_running 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestServeProfileJob exercises the profile kind and the intra-service
// profile artifact cache.
func TestServeProfileJob(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 8})

	st, _ := postJob(t, srv.URL, JobSpec{Kind: "profile", Workload: "quickstart"})
	final := awaitJob(t, srv.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	var res report.JobResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "profile" || res.Profile == nil || res.Profile.TotalPackets == 0 {
		t.Fatalf("bad profile result: %+v", res)
	}
	if st := m.Cache().Stats(); st.Misses == 0 {
		t.Error("profile run should have filled the cache")
	}
}

func TestServeBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 2})

	_, resp := postJob(t, srv.URL, JobSpec{Kind: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus kind: %s, want 400", resp.Status)
	}
	_, resp = postJob(t, srv.URL, JobSpec{Workload: "no-such"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: %s, want 400", resp.Status)
	}
	r, err := http.Get(srv.URL + "/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %s, want 404", r.Status)
	}
}

// TestServeRefusesUnknownFieldsAndOversizedSpecs: both POST routes decode
// strictly and under one size cap — a field the spec does not have (a stale
// client's "no_deps") is a 400 naming it, not a silently different
// schedule; a body over maxSpecBytes is a 413 with a JSON error body, and
// one just under the cap is read in full. A fleet spec that fits the byte cap
// but names more traffic than a job may hold is a 400 on its counts, and no
// job is queued for it.
func TestServeRefusesUnknownFieldsAndOversizedSpecs(t *testing.T) {
	srv, m := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 4})
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var msg struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			t.Fatalf("POST %s: %s with a body that is not JSON: %v", path, resp.Status, err)
		}
		return resp.StatusCode, msg.Error
	}
	for path, body := range map[string]string{
		"/jobs":   `{"kind":"optimize","workload":"quickstart","no_deps":true}`,
		"/fleets": `{"name":"f","devices":[{"name":"a","workload":"quickstart","no_deps":true}]}`,
	} {
		if code, msg := post(path, body); code != http.StatusBadRequest || !strings.Contains(msg, "no_deps") {
			t.Errorf("POST %s with an unknown field: %d %q, want 400 naming no_deps", path, code, msg)
		}
	}

	// A spec padded to the byte: the rules field soaks up the slack.
	padded := func(size int) string {
		const head, tail = `{"kind":"profile","workload":"no-such","rules":"`, `"}`
		return head + strings.Repeat("#", size-len(head)-len(tail)) + tail
	}
	if code, msg := post("/jobs", padded(maxSpecBytes+1)); code != http.StatusRequestEntityTooLarge || msg == "" {
		t.Errorf("spec one byte over the cap: %d %q, want 413 with an error body", code, msg)
	}
	if code, msg := post("/fleets", padded(maxSpecBytes+1)); code != http.StatusRequestEntityTooLarge || msg == "" {
		t.Errorf("fleet spec one byte over the cap: %d %q, want 413 with an error body", code, msg)
	}
	// At the cap the body is decoded whole and refused for what it says.
	if code, msg := post("/jobs", padded(maxSpecBytes)); code != http.StatusBadRequest || !strings.Contains(msg, "no-such") {
		t.Errorf("spec at the cap: %d %q, want 400 for the unknown workload", code, msg)
	}

	// 100 000 whole ex1 traces (2 billion packets) in under 5 MB of JSON.
	var huge strings.Builder
	huge.WriteString(`{"name":"huge","devices":[{"name":"a","workload":"ex1"}],"injections":[`)
	for i := 0; i < 100000; i++ {
		if i > 0 {
			huge.WriteByte(',')
		}
		fmt.Fprintf(&huge, `{"device":"a","workload":"ex1","seed":%d}`, i+1)
	}
	huge.WriteString(`]}`)
	if huge.Len() >= maxSpecBytes {
		t.Fatalf("the oversized fleet is %d bytes, meant to fit the %d-byte cap", huge.Len(), maxSpecBytes)
	}
	if code, msg := post("/fleets", huge.String()); code != http.StatusBadRequest || !strings.Contains(msg, "at most") {
		t.Errorf("fleet naming 100000 whole traces: %d %q, want 400 naming the cap", code, msg)
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("%d jobs queued by refused specs", len(jobs))
	}
}

func TestServeQueueFull429(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	m.Start()
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Drain(5 * time.Second)
	})

	first, _ := postJob(t, srv.URL, JobSpec{Workload: "quickstart", Seed: 1})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := getJob(t, srv.URL, first.ID); st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, resp := postJob(t, srv.URL, JobSpec{Workload: "quickstart", Seed: 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %s, want 202", resp.Status)
	}
	_, resp := postJob(t, srv.URL, JobSpec{Workload: "quickstart", Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third submit: %s, want 429", resp.Status)
	}
	close(release)
}

func TestServeHealthAndWorkloads(t *testing.T) {
	srv, _ := newTestServer(t, ManagerConfig{Workers: 1, QueueDepth: 2})

	body := getBody(t, srv.URL+"/healthz")
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil || health.Status != "ok" {
		t.Errorf("healthz = %s (%v)", body, err)
	}
	body = getBody(t, srv.URL+"/workloads")
	if !strings.Contains(body, "ex1") || !strings.Contains(body, "quickstart") {
		t.Errorf("workloads = %s", body)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func grepLines(s, needle string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
