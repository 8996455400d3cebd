package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testClient builds a client over the given servers with sleeps captured
// instead of slept, so backoff behavior is assertable and instant.
func testClient(t *testing.T, servers ...string) (*Client, *[]time.Duration) {
	t.Helper()
	c := NewClient(servers, 2*time.Second)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	return c, &slept
}

// TestClientFailover: the first replica is down (connection refused), the
// second accepts the job — a submit succeeds transparently.
func TestClientFailover(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // keep the URL, kill the listener
	var hits int32
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-000001","state":"queued"}`)
	}))
	defer live.Close()

	c, slept := testClient(t, dead.URL, live.URL)
	// Pin the ranking so the dead replica is genuinely tried first.
	c.servers = []string{dead.URL, live.URL}
	st, err := c.submit("/jobs", []byte(`{}`), "")
	if err != nil {
		t.Fatalf("submit with one dead replica: %v", err)
	}
	if st.ID != "j-000001" {
		t.Fatalf("got %+v", st)
	}
	if atomic.LoadInt32(&hits) != 1 {
		t.Errorf("live replica hit %d times, want 1", hits)
	}
	if len(*slept) != 1 {
		t.Errorf("failover slept %d time(s), want 1 backoff between attempts", len(*slept))
	}
}

// TestClientHonorsRetryAfter: a 429 with Retry-After: 2 must stretch the
// wait to the server's hint (the computed first backoff would be under
// 100ms), and the request must then be retried to success.
func TestClientHonorsRetryAfter(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-000002","state":"queued"}`)
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL)
	st, err := c.submit("/jobs", []byte(`{}`), "")
	if err != nil {
		t.Fatalf("submit after backpressure: %v", err)
	}
	if st.ID != "j-000002" {
		t.Fatalf("got %+v", st)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Errorf("slept %v, want exactly the 2s Retry-After hint", *slept)
	}
}

// TestClientRetryAfterCapped: an open circuit breaker's 30s hint is
// capped so an interactive CLI is never wedged for half a minute.
func TestClientRetryAfterCapped(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) == 1 {
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"circuit open"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-000003","state":"queued"}`)
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL)
	if _, err := c.submit("/jobs", []byte(`{}`), ""); err != nil {
		t.Fatalf("submit after circuit-open: %v", err)
	}
	if len(*slept) != 1 || (*slept)[0] != retryAfterCap {
		t.Errorf("slept %v, want the %s cap", *slept, retryAfterCap)
	}
}

// TestClientFailsFastOn4xx: a bad job spec (400) must not be retried —
// re-sending garbage N times is just load.
func TestClientFailsFastOn4xx(t *testing.T) {
	var calls int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad job spec"}`)
	}))
	defer srv.Close()

	c, slept := testClient(t, srv.URL)
	_, err := c.submit("/jobs", []byte(`{"kind":"nope"}`), "")
	if err == nil {
		t.Fatal("400 did not surface as an error")
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusBadRequest {
		t.Fatalf("error %v does not carry the 400", err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("400 retried: %d calls, want 1", calls)
	}
	if len(*slept) != 0 {
		t.Errorf("400 slept %v, want no backoff", *slept)
	}
}

// TestClientStableRouting: rendezvous ranking is a pure function of
// (replica set, route key) — every client agrees, repeatedly — and
// different digests actually spread across replicas.
func TestClientStableRouting(t *testing.T) {
	servers := []string{"http://a:1", "http://b:1", "http://c:1"}
	c, _ := testClient(t, servers...)
	first := map[string]string{}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("digest-%d", i)
		ranked := c.ranked(key)
		if len(ranked) != len(servers) {
			t.Fatalf("ranked(%q) lost replicas: %v", key, ranked)
		}
		for rep := 0; rep < 3; rep++ {
			again := c.ranked(key)
			for j := range ranked {
				if again[j] != ranked[j] {
					t.Fatalf("ranking for %q not stable: %v vs %v", key, ranked, again)
				}
			}
		}
		first[ranked[0]] = key
	}
	if len(first) < 2 {
		t.Errorf("32 digests all routed to one replica: %v", first)
	}
	// No route key: the configured order is preserved.
	plain := c.ranked("")
	for i, s := range servers {
		if plain[i] != s {
			t.Fatalf("empty route reordered servers: %v", plain)
		}
	}
}

// TestClientStatusAcrossReplicas: a job known only to the second replica
// is found by ID — 404 on one replica means "ask the next", not failure.
func TestClientStatusAcrossReplicas(t *testing.T) {
	notMine := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer notMine.Close()
	mine := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs/r2-j-000001" {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
			return
		}
		fmt.Fprint(w, `{"id":"r2-j-000001","state":"done"}`)
	}))
	defer mine.Close()

	c, _ := testClient(t, notMine.URL, mine.URL)
	st, err := c.Job("r2-j-000001")
	if err != nil {
		t.Fatalf("cross-replica status: %v", err)
	}
	if st.ID != "r2-j-000001" || st.State != StateDone {
		t.Fatalf("got %+v", st)
	}

	// Unknown everywhere: fail fast with the 404, no retry storm.
	_, err = c.Job("j-nope")
	var he *HTTPError
	if !errors.As(err, &he) || he.StatusCode != http.StatusNotFound {
		t.Fatalf("all-replicas-404 error = %v, want the 404", err)
	}
}

// TestClientListMerge: jobs lists merge across replicas, deduplicated by
// ID with terminal rows winning, ordered by creation time.
func TestClientListMerge(t *testing.T) {
	r1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[{"id":"r1-j-000001","state":"running","created_at":"2026-01-01T00:00:02Z"},
		                {"id":"shared","state":"queued","created_at":"2026-01-01T00:00:01Z"}]`)
	}))
	defer r1.Close()
	r2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `[{"id":"shared","state":"done","created_at":"2026-01-01T00:00:01Z"}]`)
	}))
	defer r2.Close()

	c, _ := testClient(t, r1.URL, r2.URL)
	sts, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("merged list has %d row(s), want 2: %+v", len(sts), sts)
	}
	if sts[0].ID != "shared" || sts[0].State != StateDone {
		t.Errorf("row 0 = %+v, want the terminal 'shared' row first (older)", sts[0])
	}
	if sts[1].ID != "r1-j-000001" {
		t.Errorf("row 1 = %+v", sts[1])
	}
}

// TestClientExhaustsAttempts: with every replica down, the error names
// the attempt and replica counts so the operator knows what was tried.
func TestClientExhaustsAttempts(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	c, slept := testClient(t, dead.URL)
	_, err := c.do(http.MethodPost, "/jobs", []byte(`{}`), "")
	if err == nil {
		t.Fatal("dead replica set did not error")
	}
	if !strings.Contains(err.Error(), "4 attempt(s)") {
		t.Errorf("error %q does not name the attempt count", err)
	}
	if len(*slept) != 3 {
		t.Fatalf("slept %d time(s), want 3 (between 4 attempts)", len(*slept))
	}
	// Jittered doubling: each wait lands in [base/2, base), base doubling.
	base := clientBackoff
	for i, d := range *slept {
		if d < base/2 || d > base {
			t.Errorf("backoff %d = %v, want within [%v, %v]", i, d, base/2, base)
		}
		if base *= 2; base > clientMaxBackoff {
			base = clientMaxBackoff
		}
	}
}

// TestJobSpecRouteKey: the route key is the artifact digest — stable
// under spec normalization, distinct across distinct work.
func TestJobSpecRouteKey(t *testing.T) {
	a := JobSpec{Workload: "quickstart", Seed: 7}
	b := JobSpec{Kind: "optimize", Workload: "quickstart", Seed: 7}
	if a.RouteKey() == "" {
		t.Fatal("valid spec has empty route key")
	}
	if a.RouteKey() != b.RouteKey() {
		t.Error("default kind and explicit optimize route differently")
	}
	if a.RouteKey() == (JobSpec{Workload: "quickstart", Seed: 8}).RouteKey() {
		t.Error("different seeds share a route key")
	}
	if (JobSpec{Kind: "bogus"}).RouteKey() != "" {
		t.Error("invalid spec produced a route key")
	}
}
