package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"p2go/internal/fleet"
	"p2go/internal/prof"
)

// Client is the replica-set-aware p2god HTTP client behind every
// `p2go submit|status|jobs|fleet *` verb. It holds the full replica set:
// submissions are routed by the job's digest (rendezvous hashing, so the
// same program+trace lands on the replica most likely to have warm
// caches), reads fan out across replicas until one answers, and every
// request retries through the shared jittered-backoff helper — honoring
// Retry-After from queue backpressure and the circuit breaker — failing
// over to the next replica instead of giving up. With one server it
// degrades to exactly the old single-endpoint behavior plus retries.
type Client struct {
	servers []string
	http    *http.Client

	// MaxAttempts bounds request attempts across the replica set
	// (default 4).
	MaxAttempts int

	rngMu sync.Mutex
	rng   *rand.Rand
	sleep func(time.Duration) // replaced in tests
}

// Request backoff starts at clientBackoff, doubles per attempt with jitter,
// and is capped at clientMaxBackoff; a server-sent Retry-After overrides the
// computed wait, capped at retryAfterCap so an open circuit's 30s hint
// cannot wedge an interactive CLI.
const (
	clientBackoff    = 100 * time.Millisecond
	clientMaxBackoff = 2 * time.Second
	retryAfterCap    = 5 * time.Second
)

// NewClient builds a client over the replica set (one or more base URLs,
// e.g. "http://127.0.0.1:9095") with the given per-request timeout.
func NewClient(servers []string, timeout time.Duration) *Client {
	cleaned := make([]string, 0, len(servers))
	for _, s := range servers {
		if s = strings.TrimRight(strings.TrimSpace(s), "/"); s != "" {
			cleaned = append(cleaned, s)
		}
	}
	if len(cleaned) == 0 {
		cleaned = []string{"http://127.0.0.1:9095"}
	}
	return &Client{
		servers:     cleaned,
		http:        &http.Client{Timeout: timeout},
		MaxAttempts: 4,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		sleep:       time.Sleep,
	}
}

// HTTPError is a non-2xx response, carrying the status code and any
// Retry-After hint so the retry helper can classify and pace.
type HTTPError struct {
	StatusCode int
	RetryAfter time.Duration
	Message    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// Retryable reports whether the failure is worth another attempt:
// backpressure (429), server-side trouble (5xx) — including 503 from a
// draining replica or an open circuit breaker — but not client errors.
func (e *HTTPError) Retryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// RouteKey returns the spec's artifact digest for replica routing, or ""
// (no affinity) when the spec does not normalize.
func (s JobSpec) RouteKey() string {
	copySpec := s
	if err := copySpec.normalize(); err != nil {
		return ""
	}
	return copySpec.digest()
}

// SubmitJob posts a job, routed by its digest.
func (c *Client) SubmitJob(spec JobSpec) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return c.submit("/jobs", body, c.route(spec))
}

// SubmitFleet posts a network-wide job, routed by the fleet fingerprint.
func (c *Client) SubmitFleet(spec fleet.Spec) (JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	return c.submit("/fleets", body, c.route(JobSpec{Kind: "fleet", Fleet: &spec}))
}

// route is the spec's RouteKey when there is a replica set to rank by it.
// With one server the key chooses nothing, and computing it — normalizing
// and fingerprinting the whole spec a second time, client-side — is most
// of what submitting a large fleet costs the client.
func (c *Client) route(spec JobSpec) string {
	if len(c.servers) < 2 {
		return ""
	}
	return spec.RouteKey()
}

func (c *Client) submit(path string, body []byte, route string) (JobStatus, error) {
	data, err := c.do(http.MethodPost, path, body, route)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("bad response: %w", err)
	}
	return st, nil
}

// Job fetches one job's status (result attached once done) from
// whichever replica knows the ID.
func (c *Client) Job(id string) (JobStatus, error) {
	return c.getStatus("/jobs/" + id)
}

// Fleet fetches one fleet job's status from whichever replica knows it.
func (c *Client) Fleet(id string) (JobStatus, error) {
	return c.getStatus("/fleets/" + id)
}

func (c *Client) getStatus(path string) (JobStatus, error) {
	data, err := c.getAny(path)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("bad response: %w", err)
	}
	return st, nil
}

// Jobs lists jobs merged across the replica set, deduplicated by ID
// (a taken-over job can briefly appear on two replicas; the terminal
// row wins) and ordered by creation time.
func (c *Client) Jobs() ([]JobStatus, error) { return c.list("/jobs") }

// Fleets lists fleet jobs merged across the replica set.
func (c *Client) Fleets() ([]JobStatus, error) { return c.list("/fleets") }

func (c *Client) list(path string) ([]JobStatus, error) {
	byID := map[string]JobStatus{}
	var lastErr error
	reached := 0
	for _, srv := range c.servers {
		data, err := c.once(http.MethodGet, srv+path, nil)
		if err != nil {
			lastErr = err
			continue
		}
		var sts []JobStatus
		if err := json.Unmarshal(data, &sts); err != nil {
			lastErr = fmt.Errorf("bad response from %s: %w", srv, err)
			continue
		}
		reached++
		for _, st := range sts {
			if prev, ok := byID[st.ID]; ok && prev.State.Terminal() && !st.State.Terminal() {
				continue
			}
			byID[st.ID] = st
		}
	}
	if reached == 0 {
		return nil, fmt.Errorf("no replica reachable: %w", lastErr)
	}
	out := make([]JobStatus, 0, len(byID))
	for _, st := range byID {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CreatedAt != out[j].CreatedAt {
			return out[i].CreatedAt < out[j].CreatedAt
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Profiles lists the daemon's stored self-captures from the first
// replica that answers (captures are per-replica, not replicated).
func (c *Client) Profiles() ([]prof.Info, error) {
	data, err := c.getAny("/debug/profiles")
	if err != nil {
		return nil, err
	}
	var infos []prof.Info
	if err := json.Unmarshal(data, &infos); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	return infos, nil
}

// ProfileBytes fetches one stored capture's raw pprof bytes by ID from
// whichever replica holds it.
func (c *Client) ProfileBytes(id string) ([]byte, error) {
	return c.getAny("/debug/profiles/" + id)
}

// CaptureProfiles asks a replica to take a CPU+heap self-capture now
// and returns what was stored.
func (c *Client) CaptureProfiles() ([]prof.Info, error) {
	data, err := c.do(http.MethodPost, "/debug/profiles/capture", nil, "")
	if err != nil {
		return nil, err
	}
	var infos []prof.Info
	if err := json.Unmarshal(data, &infos); err != nil {
		return nil, fmt.Errorf("bad response: %w", err)
	}
	return infos, nil
}

// AwaitJob waits until the job is terminal. It long-polls: each request
// asks the server to hold the answer until the job finishes (GET
// ...?wait=), so the result arrives when the job ends, not at the next
// tick. poll is only the pause before re-asking after an answer that came
// back early and non-terminal (a draining or older server) or an error.
// Waiting is failover-tolerant by construction (each request asks the
// whole replica set), and a job that is momentarily unknown everywhere —
// mid-takeover, between a replica dying and a survivor re-submitting — is
// retried until the deadline rather than failed.
func (c *Client) AwaitJob(id string, poll, timeout time.Duration) (JobStatus, error) {
	return c.await("/jobs/"+id, poll, timeout)
}

// AwaitFleet is AwaitJob for fleet jobs.
func (c *Client) AwaitFleet(id string, poll, timeout time.Duration) (JobStatus, error) {
	return c.await("/fleets/"+id, poll, timeout)
}

func (c *Client) await(path string, poll, timeout time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for {
		// Ask the server to hold the request for no longer than the time
		// left here, than half the request timeout (the other half is for
		// the transfer), and than the server would agree to anyway.
		wait, pause := maxWait, poll
		if half := c.http.Timeout / 2; half > 0 {
			wait = min(wait, half)
		}
		if timeout > 0 {
			wait = max(0, min(wait, time.Until(deadline)))
		}
		st, err := c.getStatus(path + "?wait=" + wait.String())
		if err == nil && st.State.Terminal() {
			return st, nil
		}
		if timeout > 0 {
			left := time.Until(deadline)
			if left <= 0 {
				if err != nil {
					return JobStatus{}, fmt.Errorf("await %s: %w", path, err)
				}
				return JobStatus{}, fmt.Errorf("await %s: job not terminal after %s", path, timeout)
			}
			pause = min(pause, left)
		}
		c.sleep(pause)
	}
}

// do is the shared retry helper: rank the replica set for the route,
// then attempt the request with jittered exponential backoff, advancing
// to the next replica on every retryable failure (connection error,
// 429, 5xx) and honoring Retry-After. Non-retryable statuses fail fast.
func (c *Client) do(method, path string, body []byte, route string) ([]byte, error) {
	servers := c.ranked(route)
	backoff := clientBackoff
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		srv := servers[attempt%len(servers)]
		data, err := c.once(method, srv+path, body)
		if err == nil {
			return data, nil
		}
		lastErr = fmt.Errorf("%s%s: %w", srv, path, err)
		var he *HTTPError
		if errors.As(err, &he) && !he.Retryable() {
			return nil, lastErr
		}
		if attempt == c.MaxAttempts-1 {
			break
		}
		wait := c.jitter(backoff)
		if errors.As(err, &he) && he.RetryAfter > 0 {
			ra := he.RetryAfter
			if ra > retryAfterCap {
				ra = retryAfterCap
			}
			if ra > wait {
				wait = ra
			}
		}
		c.sleep(wait)
		if backoff *= 2; backoff > clientMaxBackoff {
			backoff = clientMaxBackoff
		}
	}
	return nil, fmt.Errorf("%s %s failed after %d attempt(s) across %d replica(s): %w",
		method, path, c.MaxAttempts, len(servers), lastErr)
}

// getAny fetches path from the first replica that answers 2xx, trying
// the whole set per attempt round — a 404 on one replica just means the
// job lives elsewhere. All-replicas-404 fails fast (retrying will not
// conjure the job); connection errors and 5xx retry with backoff.
func (c *Client) getAny(path string) ([]byte, error) {
	backoff := clientBackoff
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		notFound := 0
		for _, srv := range c.servers {
			data, err := c.once(http.MethodGet, srv+path, nil)
			if err == nil {
				return data, nil
			}
			lastErr = fmt.Errorf("%s%s: %w", srv, path, err)
			var he *HTTPError
			if errors.As(err, &he) {
				if he.StatusCode == http.StatusNotFound {
					notFound++
					continue
				}
				if !he.Retryable() {
					return nil, lastErr
				}
			}
		}
		if notFound == len(c.servers) {
			return nil, lastErr
		}
		if attempt == c.MaxAttempts-1 {
			break
		}
		c.sleep(c.jitter(backoff))
		if backoff *= 2; backoff > clientMaxBackoff {
			backoff = clientMaxBackoff
		}
	}
	return nil, fmt.Errorf("GET %s failed after %d attempt(s) across %d replica(s): %w",
		path, c.MaxAttempts, len(c.servers), lastErr)
}

// once performs a single HTTP request, mapping non-2xx to *HTTPError.
func (c *Client) once(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		he := &HTTPError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				he.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, he
	}
	return data, nil
}

// readBody reads the whole response body, into a buffer of the declared
// size when the server declared one (p2god does) instead of through
// io.ReadAll's doublings, which copy a fleet report more than twice over.
// A declared length past maxSpecBytes is not trusted with an allocation.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 || resp.ContentLength > maxSpecBytes {
		return io.ReadAll(resp.Body)
	}
	data := make([]byte, resp.ContentLength)
	_, err := io.ReadFull(resp.Body, data)
	return data, err
}

// ranked orders the replica set for a route key by rendezvous
// (highest-random-weight) hashing: every client ranks the replicas for a
// given digest identically, with no coordination and no reshuffling when
// the set changes by one — so the same program+trace consistently lands
// where its artifacts are already cached, and failover (attempt k takes
// the k-th ranked replica) is deterministic too.
func (c *Client) ranked(route string) []string {
	out := append([]string(nil), c.servers...)
	if route == "" || len(out) < 2 {
		return out
	}
	sort.SliceStable(out, func(i, j int) bool {
		return rendezvousWeight(out[i], route) > rendezvousWeight(out[j], route)
	})
	return out
}

func rendezvousWeight(server, key string) uint64 {
	sum := sha256.Sum256([]byte(server + "\x00" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

// jitter spreads a backoff over [d/2, d) so synchronized clients do not
// hammer a recovering replica in lockstep.
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}
