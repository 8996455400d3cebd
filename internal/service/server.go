// Package service is the p2god optimization service: a stdlib-only HTTP
// daemon that runs profile/optimize jobs on a bounded worker pool, serves
// repeated work from a content-addressed artifact cache (the pipeline's
// analysis cache is a view over it, so even intra-job probe loops hit it),
// and exposes job status, Prometheus metrics, health, queue-full
// backpressure, and graceful drain.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"p2go/internal/fleet"
	"p2go/internal/obs"
	"p2go/internal/prof"
	"p2go/internal/workloads"
)

// NewHandler builds the daemon's HTTP API on a manager:
//
//	POST /jobs             submit a JobSpec; 202 + JobStatus, 429 when full
//	GET  /jobs             list jobs (no results)
//	GET  /jobs/{id}        one job; result attached once done. ?wait=30s
//	                       parks the request until the job is terminal
//	                       (or the wait, capped at 30s, elapses)
//	GET  /jobs/{id}/trace  the job's span tree as Chrome trace-event JSON
//	POST /jobs/{id}/cancel request cancellation
//	POST /fleets           submit a fleet.Spec (network-wide job); 202 + JobStatus
//	GET  /fleets           list fleet jobs (no results)
//	GET  /fleets/{id}      one fleet job; FleetResult attached once done;
//	                       ?wait= as for /jobs/{id}
//	GET  /workloads        registered workload names and descriptions
//	GET  /cluster          replica-group view: self, peers, member liveness
//	GET  /debug/profiles        list the daemon's stored self-captures
//	GET  /debug/profiles/{id}   one capture's raw pprof bytes
//	POST /debug/profiles/capture  take a CPU+heap capture now
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          liveness + queue occupancy
//
// Bodies are compact JSON (clients that show them re-indent). The
// /debug/profiles routes answer 404 unless the manager was built with a
// profile store (p2god -profile-dir).
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	submit := func(w http.ResponseWriter, spec JobSpec) {
		st, err := m.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case errors.Is(err, ErrCircuitOpen):
			w.Header().Set("Retry-After", "30")
			writeError(w, http.StatusServiceUnavailable, err.Error())
		case err != nil:
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	}
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if decodeSpec(w, r, "job spec", &spec) {
			submit(w, spec)
		}
	})
	mux.HandleFunc("POST /fleets", func(w http.ResponseWriter, r *http.Request) {
		var spec fleet.Spec
		if decodeSpec(w, r, "fleet spec", &spec) {
			submit(w, JobSpec{Kind: "fleet", Fleet: &spec})
		}
	})
	mux.HandleFunc("GET /fleets", func(w http.ResponseWriter, r *http.Request) {
		var out []JobStatus
		for _, st := range m.List() {
			if st.Kind == "fleet" {
				out = append(out, st)
			}
		}
		if out == nil {
			out = []JobStatus{}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /fleets/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Wait(r.Context(), r.PathValue("id"), waitParam(r), true)
		if !ok || st.Kind != "fleet" {
			writeError(w, http.StatusNotFound, "unknown fleet job "+r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Wait(r.Context(), r.PathValue("id"), waitParam(r), true)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		spans, ok := m.Trace(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no trace for job "+r.PathValue("id")+" (unknown, or not started)")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeTrace(w, spans)
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /workloads", func(w http.ResponseWriter, r *http.Request) {
		type entry struct {
			Name        string `json:"name"`
			Description string `json:"description"`
			Paper       string `json:"paper"`
		}
		var out []entry
		for _, name := range workloads.Names() {
			wl, err := workloads.Get(name)
			if err != nil {
				continue
			}
			out = append(out, entry{Name: wl.Name, Description: wl.Description, Paper: wl.Paper})
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /debug/profiles", func(w http.ResponseWriter, r *http.Request) {
		store := m.Profiles()
		if store == nil {
			writeError(w, http.StatusNotFound, "profile store disabled (start p2god with -profile-dir)")
			return
		}
		infos, err := store.List()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if infos == nil {
			infos = []prof.Info{}
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("GET /debug/profiles/{id}", func(w http.ResponseWriter, r *http.Request) {
		store := m.Profiles()
		if store == nil {
			writeError(w, http.StatusNotFound, "profile store disabled (start p2god with -profile-dir)")
			return
		}
		data, err := store.Open(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="`+r.PathValue("id")+`"`)
		_, _ = w.Write(data)
	})
	mux.HandleFunc("POST /debug/profiles/capture", func(w http.ResponseWriter, r *http.Request) {
		store := m.Profiles()
		if store == nil {
			writeError(w, http.StatusNotFound, "profile store disabled (start p2god with -profile-dir)")
			return
		}
		infos, err := store.Capture(r.Context())
		if err != nil {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeJSON(w, http.StatusCreated, infos)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		queued, running := m.Counts()
		stats := m.Cache().Stats()
		gauges := map[string]float64{
			"p2god_jobs_queued":   float64(queued),
			"p2god_jobs_running":  float64(running),
			"p2god_cache_entries": float64(stats.Entries),
			"p2god_workers":       float64(m.cfg.Workers),
			"p2god_queue_depth":   float64(m.cfg.QueueDepth),
		}
		if store := m.Profiles(); store != nil {
			var stored, bytes float64
			if infos, err := store.List(); err == nil {
				stored = float64(len(infos))
				for _, info := range infos {
					bytes += float64(info.Bytes)
				}
			}
			gauges["p2god_profile_store_captures"] = stored
			gauges["p2god_profile_store_bytes"] = bytes
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.Metrics().WritePrometheus(w, gauges)
	})
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		node := m.Cluster()
		if node == nil {
			writeJSON(w, http.StatusOK, map[string]any{"clustered": false})
			return
		}
		type memberView struct {
			ID      string `json:"id"`
			Alive   bool   `json:"alive"`
			Expires string `json:"expires"`
		}
		var views []memberView
		if members, err := node.Members(); err == nil {
			for _, mem := range members {
				views = append(views, memberView{
					ID:      mem.ID,
					Alive:   node.Alive(mem),
					Expires: mem.Expires.UTC().Format("2006-01-02T15:04:05.999999999Z07:00"),
				})
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"clustered": true,
			"replica":   node.ID(),
			"lease_ttl": node.TTL().String(),
			"peers":     m.cfg.Peers,
			"members":   views,
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		queued, running := m.Counts()
		status := "ok"
		if m.Draining() {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"status":  status,
			"queued":  queued,
			"running": running,
		})
	})
	return mux
}

// maxSpecBytes caps a submitted job or fleet spec. The largest real ones —
// a fleet of hundreds of devices, each with an inline program and rules —
// are a few megabytes.
const maxSpecBytes = 8 << 20

// decodeSpec reads a submitted spec into v, answering the request itself
// (and returning false) when the body is over maxSpecBytes (413), is not
// JSON, or names a field the spec does not have (400) — so a client built
// against another version's schema is refused, not run with the field
// silently dropped.
func decodeSpec(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("%s over %d bytes", what, maxSpecBytes))
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
	}
	return err == nil
}

// waitParam reads ?wait=<duration>. Absent, malformed or negative means no
// wait — the immediate answer a client that never heard of the parameter
// gets; Manager.Wait caps what is left.
func waitParam(r *http.Request) time.Duration {
	d, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil {
		return 0
	}
	return d
}

// writeJSON writes v as one line of compact JSON. A JobStatus carrying a
// result is not re-encoded: its envelope is marshalled without the result
// and the stored bytes are spliced in verbatim, so a report — hundreds of
// kilobytes for a fleet — is neither copied nor re-scanned per response.
// That is sound because a result only ever comes from a fill that
// marshalled it or a cache hit that passed Manager.validHit.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var result []byte
	if st, ok := v.(JobStatus); ok && len(st.Result) > 0 {
		result, st.Result = st.Result, nil
		v = st
	}
	head, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if result == nil {
		w.Header().Set("Content-Length", strconv.Itoa(len(head)+1))
		w.WriteHeader(code)
		_, _ = w.Write(append(head, '\n'))
		return
	}
	const field = `,"result":`
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(field)+len(result)+1))
	w.WriteHeader(code)
	_, _ = w.Write(append(head[:len(head)-1], field...)) // reopen the envelope's object
	_, _ = w.Write(result)
	_, _ = w.Write([]byte("}\n"))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
