package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2go/internal/fleet"
)

// getWait is GET /jobs/{id}?wait=<wait>, timed.
func getWait(t *testing.T, base, id, wait string) (JobStatus, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(base + "/jobs/" + id + "?wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("GET ?wait=%s: %s: %v", wait, resp.Status, err)
	}
	return st, time.Since(start)
}

// TestLongPollWakes: GET /jobs/{id}?wait= parks until the job's terminal
// transition and is woken by it, not by a tick; the parameter's edge values
// behave as documented; and waiters are released by a drain, leaving no
// goroutine behind.
func TestLongPollWakes(t *testing.T) {
	release := make(chan struct{})
	var fills atomic.Int64
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 4})
	m.execFn = gatedExec(&fills, release)
	m.Start()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	running, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)

	// Absent, malformed and negative waits are the immediate answer.
	for _, wait := range []string{"", "soon", "-5s", "0"} {
		if st, took := getWait(t, srv.URL, running.ID, wait); st.State != StateRunning || took > time.Second {
			t.Errorf("?wait=%q on a running job: %s after %s, want running at once", wait, st.State, took)
		}
	}
	// A wait that elapses answers with the state the job is in.
	if st, took := getWait(t, srv.URL, running.ID, "30ms"); st.State != StateRunning || took < 30*time.Millisecond || took > 2*time.Second {
		t.Errorf("?wait=30ms on a running job: %s after %s, want running after about 30ms", st.State, took)
	}
	// An unknown job is a 404 whatever the wait.
	if resp, err := http.Get(srv.URL + "/jobs/j-404404?wait=10s"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("?wait= on an unknown job: %s, want 404", resp.Status)
		}
		resp.Body.Close()
	}
	// A wait ends with its request: Wait under a context that is canceled
	// returns then, however long it was asked to park.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	start := time.Now()
	if st, ok := m.Wait(ctx, running.ID, 24*time.Hour, false); !ok || st.State != StateRunning || time.Since(start) > 2*time.Second {
		t.Errorf("Wait under an ended context: %+v after %s, want running at once", st, time.Since(start))
	}
	cancel()

	// A parked waiter is woken by the terminal flip itself: over five jobs
	// the median lag from finished_at to the waiter's return is under 5ms
	// (the median, so one descheduling on a shared box does not fail it; a
	// waiter paced by any tick worth having would miss every time).
	close(release)
	if st, _ := m.Wait(context.Background(), running.ID, time.Minute, true); st.State != StateDone || len(st.Result) == 0 {
		t.Fatalf("waiter on the first job saw %s with %d result bytes, want done with the result", st.State, len(st.Result))
	}
	var lags []time.Duration
	for i := 0; i < 5; i++ {
		gate := make(chan struct{})
		m.execFn = gatedExec(&fills, gate)
		job, err := m.Submit(JobSpec{Workload: "quickstart", Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, job.ID, StateRunning)
		type answer struct {
			st JobStatus
			at time.Time
		}
		got := make(chan answer, 1)
		go func() {
			st, _ := m.Wait(context.Background(), job.ID, time.Hour, true)
			got <- answer{st, time.Now()}
		}()
		time.Sleep(10 * time.Millisecond) // let it park
		close(gate)
		a := <-got
		finished, err := time.Parse(time.RFC3339Nano, a.st.FinishedAt)
		if err != nil || a.st.State != StateDone || len(a.st.Result) == 0 {
			t.Fatalf("woken waiter's status = %+v (%v), want done with the result", a.st, err)
		}
		lags = append(lags, a.at.Sub(finished))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if lags[2] > 5*time.Millisecond && !raceEnabled {
		t.Errorf("waiters returned %v after their jobs' terminal flips, want a median under 5ms", lags)
	}
	// On a terminal job any wait returns at once — over HTTP too, and
	// with a value past the cap.
	if st, took := getWait(t, srv.URL, running.ID, "48h"); st.State != StateDone || took > time.Second {
		t.Errorf("?wait=48h on a finished job: %s after %s, want done at once", st.State, took)
	}

	// 64 waiters on a job that never finishes, then a drain: every one
	// returns, and none of their goroutines survives.
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	stuck, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, stuck.ID, StateRunning)
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var parked atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parked.Add(1)
			if _, ok := m.Wait(context.Background(), stuck.ID, time.Hour, false); !ok {
				t.Error("a waiter lost its job")
			}
		}()
	}
	for parked.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	m.Drain(50 * time.Millisecond)
	wg.Wait()
	if st, _ := m.Get(stuck.ID, false); st.State != StateCanceled {
		t.Errorf("stuck job after the drain = %s, want canceled", st.State)
	}
	// A Wait after the drain began does not park at all.
	start = time.Now()
	m.Wait(context.Background(), stuck.ID, time.Hour, false)
	if took := time.Since(start); took > time.Second {
		t.Errorf("Wait on a drained manager took %s", took)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the waiters, %d after the drain", before, after)
	}
}

// TestWaitNeverSeesNonTerminalAsTerminal hammers the wake-up: every waiter
// woken by a job's done channel must read a terminal state, because the
// channel closes under the lock that sets it.
func TestWaitNeverSeesNonTerminalAsTerminal(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 4, QueueDepth: 64})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) { return []byte(`{}`), nil }
	m.Start()
	defer m.Drain(time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		st, err := m.Submit(JobSpec{Workload: "quickstart", Seed: int64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, ok := m.Wait(context.Background(), st.ID, 10*time.Second, true)
				if !ok || got.State != StateDone || string(got.Result) != `{}` {
					t.Errorf("waiter on %s woke to %+v", st.ID, got)
				}
			}()
		}
	}
	wg.Wait()
}

// statusesWithResults runs one real optimize, profile and fleet job and
// returns their final statuses.
func statusesWithResults(t *testing.T) []JobStatus {
	t.Helper()
	m := NewManager(ManagerConfig{Workers: 2, QueueDepth: 8})
	m.Start()
	defer m.Drain(5 * time.Second)
	fl := fleet.Synthetic("quickstart", 2, 1, 30)
	var out []JobStatus
	for _, spec := range []JobSpec{
		{Kind: "optimize", Workload: "quickstart"},
		{Kind: "profile", Workload: "quickstart"},
		{Kind: "fleet", Fleet: &fl},
	} {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fin, _ := m.Wait(context.Background(), st.ID, 2*time.Minute, true)
		if fin.State != StateDone || len(fin.Result) == 0 {
			t.Fatalf("%s job = %s (%q)", spec.Kind, fin.State, fin.Error)
		}
		out = append(out, fin)
	}
	return out
}

// TestSpliceEqualsMarshal: the response writeJSON splices together for a
// status carrying a result is the document json.Marshal would have
// produced — valid JSON, equal once decoded, result bytes untouched — under
// an exact Content-Length.
func TestSpliceEqualsMarshal(t *testing.T) {
	for _, st := range statusesWithResults(t) {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, st)
		body := rec.Body.Bytes()
		if !json.Valid(body) {
			t.Fatalf("%s: spliced response is not valid JSON: %.200s", st.Kind, body)
		}
		if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(len(body)); got != want {
			t.Errorf("%s: Content-Length %s for a %s-byte body", st.Kind, got, want)
		}
		marshalled, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var spliced, reference JobStatus
		if err := json.Unmarshal(body, &spliced); err != nil {
			t.Fatalf("%s: spliced response does not decode: %v", st.Kind, err)
		}
		if err := json.Unmarshal(marshalled, &reference); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spliced, reference) {
			t.Errorf("%s: spliced response decodes to\n%+v\nthe marshalled one to\n%+v", st.Kind, spliced, reference)
		}
		if !bytes.Equal(spliced.Result, st.Result) {
			t.Errorf("%s: served result is not the stored bytes", st.Kind)
		}
		if strings.TrimSpace(string(body)) != string(marshalled) {
			t.Errorf("%s: spliced response differs from json.Marshal's bytes", st.Kind)
		}
	}
	// No result, no splice: the plain path declares its length too.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, JobStatus{ID: "j-000001", State: StateQueued})
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("plain status: Content-Length %s for %s bytes: %s", got, want, rec.Body.Bytes())
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestWriteJSONAllocCeiling: serving a status with a 400 KB result
// allocates for the envelope (under 1 KB), not for the report. Through the
// indenting json.Encoder it replaced, the same call allocated 2 003 368
// bytes — the result compacted into the encoder's buffer, then indented
// into a second one; the ceiling is a thirtieth of that.
func TestWriteJSONAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	result := []byte(`{"rows":["` + strings.Repeat("x", 400<<10) + `"]}`)
	st := JobStatus{ID: "j-000001", State: StateDone, Kind: "fleet", Cached: true, Result: result}
	w := discardWriter{h: http.Header{}}
	var before, after runtime.MemStats
	const rounds = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		writeJSON(w, http.StatusOK, st)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("writeJSON of a %d KB result: %d bytes allocated per call", len(result)>>10, perCall)
	if perCall >= 64<<10 {
		t.Errorf("writeJSON allocated %d bytes per call, ceiling %d", perCall, 64<<10)
	}
}

// TestAwaitClipsToDeadline: against a server whose job never finishes,
// await gives up within its timeout plus one request — its last long poll
// asks only for the time left, not for a full wait — and never sleeps past
// the deadline either.
func TestAwaitClipsToDeadline(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1})
	m.execFn = func(ctx context.Context, job *Job) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	var waits []time.Duration
	var mu sync.Mutex
	handler := NewHandler(m)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		waits = append(waits, waitParam(r))
		mu.Unlock()
		handler.ServeHTTP(w, r)
	}))
	m.Start()
	defer func() {
		srv.Close()
		m.Drain(50 * time.Millisecond)
	}()
	st, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	c, slept := testClient(t, srv.URL) // request timeout 2s: half of it caps a wait
	const timeout = 300 * time.Millisecond
	start := time.Now()
	_, err = c.AwaitJob(st.ID, 10*time.Second, timeout)
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "not terminal") {
		t.Fatalf("await of a job that never finishes = %v, want the not-terminal error", err)
	}
	if took < timeout || took > timeout+time.Second {
		t.Errorf("await took %s, want its %s timeout plus at most one request", took, timeout)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) == 0 || len(waits) > 2 {
		t.Fatalf("await made %d requests (waits %v), want one long poll and at most one clipped re-ask", len(waits), waits)
	}
	for _, w := range waits {
		if w > timeout {
			t.Errorf("a request asked the server to hold it %s, past the %s left", w, timeout)
		}
	}
	for _, d := range *slept {
		if d > timeout {
			t.Errorf("await paused %s with a %s deadline", d, timeout)
		}
	}
}

// TestAwaitReturnsWhenTheJobEnds: with a poll interval far longer than the
// job, await still returns as the job finishes — the interval is a
// fallback, not the clock.
func TestAwaitReturnsWhenTheJobEnds(t *testing.T) {
	release := make(chan struct{})
	var fills atomic.Int64
	m := NewManager(ManagerConfig{Workers: 1})
	m.execFn = gatedExec(&fills, release)
	srv := newServerOn(t, m)
	st, err := m.Submit(JobSpec{Workload: "quickstart", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient([]string{srv.URL}, 10*time.Second)
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	start := time.Now()
	fin, err := c.AwaitJob(st.ID, time.Hour, time.Minute)
	if err != nil || fin.State != StateDone || len(fin.Result) == 0 {
		t.Fatalf("await = %+v, %v", fin, err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("await took %s for a 50ms job", took)
	}
}

// TestClientRoutesOnlyAcrossReplicas: with one server there is nothing to
// rank, so submitting does not compute the spec's route key; with two it
// does, and ranks by it.
func TestClientRoutesOnlyAcrossReplicas(t *testing.T) {
	spec := JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 5}
	if got := NewClient([]string{"http://a"}, time.Second).route(spec); got != "" {
		t.Errorf("single-server route = %q, want none", got)
	}
	if got := NewClient([]string{"http://a", "http://b"}, time.Second).route(spec); got == "" || got != spec.RouteKey() {
		t.Errorf("replica-set route = %q, want the spec's route key %q", got, spec.RouteKey())
	}
}

// TestReadBodySizesFromContentLength: a declared length is read into a
// buffer of exactly that size; an undeclared or implausible one goes
// through io.ReadAll; a body shorter than declared is an error, not a
// zero-padded success.
func TestReadBodySizesFromContentLength(t *testing.T) {
	payload := strings.Repeat("r", 300<<10)
	resp := func(declared int64, body string) *http.Response {
		return &http.Response{ContentLength: declared, Body: io.NopCloser(strings.NewReader(body))}
	}
	for _, declared := range []int64{int64(len(payload)), -1, maxSpecBytes + 1} {
		data, err := readBody(resp(declared, payload))
		if err != nil || string(data) != payload {
			t.Errorf("declared %d: read %d bytes, %v; want the %d-byte payload", declared, len(data), err, len(payload))
		}
		if declared == int64(len(payload)) && cap(data) != len(payload) {
			t.Errorf("declared %d: buffer capacity %d, want exactly the declared size", declared, cap(data))
		}
	}
	if _, err := readBody(resp(int64(len(payload)), payload[:100])); err == nil {
		t.Error("a body shorter than its declared length read without error")
	}
	if data, err := readBody(resp(0, "")); err != nil || len(data) != 0 {
		t.Errorf("empty declared body: %q, %v", data, err)
	}
}
