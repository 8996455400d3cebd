// Command p2god is the resident P2GO optimization service: it accepts
// profile/optimize jobs over HTTP, runs them on a bounded worker pool with
// per-job timeouts and cancellation, serves repeated work from a
// content-addressed artifact cache, and exposes Prometheus metrics and
// per-job execution traces. POST /fleets submits network-wide jobs: the
// daemon collects each device's observed traffic across the topology,
// optimizes every device against its own trace, and aggregates the rows
// into one fleet report — a daemon-wide analysis cache dedups compiles
// and profiles across devices and across fleet jobs, so homogeneous
// fleets compile each distinct program once.
//
// Usage:
//
//	p2god [-listen addr] [-workers N] [-queue N] [-job-timeout d]
//	      [-parallelism N] [-cache-entries N] [-cache-dir dir] [-drain-timeout d]
//	      [-journal path] [-trace-dir dir] [-pprof] [-log-level level]
//	      [-cluster-dir dir] [-replica-id id] [-peers addrs] [-lease-ttl d]
//	      [-profile-dir dir] [-profile-every d] [-profile-cpu d] [-profile-keep N]
//
// High availability: -cluster-dir joins the daemon to a replica group.
// Replicas of one group share the directory (and, by default, spill the
// artifact cache and journal into it), announce themselves with fsynced
// membership leases, guard each job with a per-digest ownership lease
// (TTL -lease-ttl, epoch-fenced), and reclaim accepted-but-unfinished
// jobs from peers whose lease expired — kill -9 one replica mid-job and
// a survivor completes it under the original job ID. -peers lists the
// replica set's HTTP addresses for clients (served at GET /cluster;
// `p2go -servers` routes jobs by digest and fails over automatically).
//
// Submit with curl (or `p2go submit`):
//
//	curl -s -X POST localhost:9095/jobs -d '{"kind":"optimize","workload":"ex1"}'
//	curl -s 'localhost:9095/jobs/j-000001?wait=30s'   (answers when the job ends)
//	p2go fleet submit -devices 64 -workload quickstart -wait   (network-wide job)
//	curl -s localhost:9095/jobs/j-000001/trace > trace.json   (load in Perfetto)
//	curl -s localhost:9095/metrics
//
// Every job runs under a span tracer; GET /jobs/{id}/trace returns the
// job's span tree as Chrome trace-event JSON, and -trace-dir additionally
// persists each job's trace to <dir>/<job-id>.trace.json. -pprof mounts
// the net/http/pprof handlers under /debug/pprof/ for live CPU and heap
// profiling of the daemon itself.
//
// Continuous profiling: -profile-dir makes the daemon capture CPU+heap
// pprof snapshots of itself every -profile-every (crash-safe writes,
// newest -profile-keep per kind retained), served at GET /debug/profiles
// (list) and GET /debug/profiles/{id} (raw pprof; `p2go profiles
// list|get|capture` wraps them). Every job report also carries a
// `resources` block — CPU seconds, allocations, GC cycles, peak heap —
// and the same numbers land on the job's root span and the
// p2god_job_cpu_seconds / p2god_job_allocs_total metric families. The
// stored CPU captures are mergeable into a PGO profile; see
// `cmd/experiments -pgo`.
//
// A spec the artifact cache already answers is served at admission: the
// POST's own response is terminal (state done, cached true) and the job
// never enters the queue. Responses are compact JSON; pipe them through
// `jq .` (or use `p2go status`) to read them indented.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, parked ?wait=
// requests are answered with the state their job is in, queued jobs are
// requeued via the journal (canceled when -journal is unset), and running
// jobs get -drain-timeout to finish before their contexts are canceled.
// With -journal set, jobs that were queued or running when the process
// died — graceful drain or kill -9 alike — are recovered on the next
// start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"p2go/internal/cluster"
	"p2go/internal/obs"
	"p2go/internal/prof"
	"p2go/internal/service"
)

// options collects the daemon's flag values.
type options struct {
	listen       string
	workers      int
	queue        int
	jobTimeout   time.Duration
	parallelism  int
	cacheEntries int
	cacheDir     string
	drainTimeout time.Duration
	journalPath  string
	traceDir     string
	pprofOn      bool
	logLevel     string
	clusterDir   string
	replicaID    string
	peers        string
	leaseTTL     time.Duration
	profileDir   string
	profileEvery time.Duration
	profileCPU   time.Duration
	profileKeep  int
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:9095", "HTTP listen address")
	flag.IntVar(&o.workers, "workers", 2, "worker-pool size")
	flag.IntVar(&o.queue, "queue", 16, "job queue depth (submissions beyond it get 429)")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 0, "per-job timeout (0 = none; jobs may request their own)")
	flag.IntVar(&o.parallelism, "parallelism", 0, "default per-job workers for sharded replay and candidate probes (0 = all CPUs, 1 = sequential; jobs may override)")
	flag.IntVar(&o.cacheEntries, "cache-entries", 512, "artifact cache capacity (entries)")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "spill byte artifacts to this directory (optional)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "how long running jobs may finish on shutdown")
	flag.StringVar(&o.journalPath, "journal", "", "crash-safe job journal; queued/running jobs are recovered from it on restart (optional)")
	flag.StringVar(&o.traceDir, "trace-dir", "", "persist each job's Chrome trace-event JSON to this directory (optional)")
	flag.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.StringVar(&o.logLevel, "log-level", "", "log verbosity on stderr: debug, info (default), warn, error")
	flag.StringVar(&o.clusterDir, "cluster-dir", "", "join the replica group coordinating through this shared directory (optional)")
	flag.StringVar(&o.replicaID, "replica-id", "", "this replica's unique, stable ID within the group (required with -cluster-dir)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated HTTP addresses of the replica set, served at GET /cluster for client routing")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", cluster.DefaultTTL, "membership/job lease time-to-live; a replica missing renewal this long is presumed dead")
	flag.StringVar(&o.profileDir, "profile-dir", "", "store periodic CPU+heap self-captures in this directory, served at GET /debug/profiles (optional)")
	flag.DurationVar(&o.profileEvery, "profile-every", 5*time.Minute, "self-capture cadence (0 disables the periodic loop; POST /debug/profiles/capture still works)")
	flag.DurationVar(&o.profileCPU, "profile-cpu", prof.DefaultCPUDuration, "how long each CPU self-capture samples")
	flag.IntVar(&o.profileKeep, "profile-keep", prof.DefaultKeep, "self-captures retained per kind (cpu, heap); older ones are deleted")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "p2god:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	level, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level)

	// Joining a replica group defaults the journal and cache spill into
	// the shared directory: peers read our journal to reclaim work, and
	// the shared spill is what lets a survivor serve our results.
	var node *cluster.Node
	if o.clusterDir != "" {
		if o.replicaID == "" {
			return fmt.Errorf("-cluster-dir requires -replica-id")
		}
		node, err = cluster.Join(cluster.Config{Dir: o.clusterDir, ID: o.replicaID, TTL: o.leaseTTL})
		if err != nil {
			return err
		}
		if o.journalPath == "" {
			o.journalPath = node.JournalPath(o.replicaID)
		} else if o.journalPath != node.JournalPath(o.replicaID) {
			// Peers can only reclaim our jobs if they can find our
			// journal, and they look for it at the group's well-known
			// path. A journal anywhere else silently disables takeover.
			return fmt.Errorf("-journal must be left unset with -cluster-dir (the group journal lives at %s)", node.JournalPath(o.replicaID))
		}
		if o.cacheDir == "" {
			o.cacheDir = filepath.Join(o.clusterDir, "spill")
			if err := os.MkdirAll(o.cacheDir, 0o755); err != nil {
				return fmt.Errorf("cluster spill dir: %w", err)
			}
		} else if o.cacheDir != filepath.Join(o.clusterDir, "spill") {
			// Not fatal — a survivor just recomputes rows it cannot find
			// in its own spill — but it defeats the shared-cache half of
			// the HA story, so say so.
			logger.Warn("custom -cache-dir with -cluster-dir: peers cannot re-serve this replica's spilled results",
				"cache_dir", o.cacheDir, "shared", filepath.Join(o.clusterDir, "spill"))
		}
		logger.Info("joined replica group", "dir", o.clusterDir, "replica", o.replicaID,
			"lease_ttl", o.leaseTTL.String(), "peers", o.peers)
	}

	var journal *service.Journal
	if o.journalPath != "" {
		journal, err = service.OpenJournal(o.journalPath)
		if err != nil {
			return err
		}
		defer journal.Close()
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
	}
	var peers []string
	for _, p := range strings.Split(o.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	var store *prof.Store
	if o.profileDir != "" {
		store, err = prof.NewStore(prof.StoreConfig{
			Dir:         o.profileDir,
			Keep:        o.profileKeep,
			CPUDuration: o.profileCPU,
		})
		if err != nil {
			return err
		}
	}
	m := service.NewManager(service.ManagerConfig{
		Workers:     o.workers,
		QueueDepth:  o.queue,
		JobTimeout:  o.jobTimeout,
		Parallelism: o.parallelism,
		Cache:       service.NewCache(o.cacheEntries, o.cacheDir),
		Journal:     journal,
		TraceDir:    o.traceDir,
		Cluster:     node,
		Peers:       peers,
		Profiles:    store,
		Logger:      logger,
	})
	if journal != nil {
		pending, warnings, err := journal.Recover()
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		for _, w := range warnings {
			logger.Warn("journal recovery", "warning", w)
		}
		if len(pending) > 0 {
			accepted, dropped := m.Requeue(pending)
			logger.Info("recovered journaled jobs", "accepted", accepted, "dropped", dropped)
		}
	}
	m.Start()

	if store != nil {
		loopCtx, stopLoop := context.WithCancel(context.Background())
		defer stopLoop()
		if o.profileEvery > 0 {
			go store.Run(loopCtx, o.profileEvery)
		}
		logger.Info("self-profiling enabled", "dir", o.profileDir,
			"every", o.profileEvery.String(), "cpu", o.profileCPU.String(),
			"keep", o.profileKeep)
	}

	handler := service.NewHandler(m)
	if o.pprofOn {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	// Requests derive their contexts from reqCtx, and Shutdown ends it: a
	// client parked in GET /jobs/{id}?wait= is answered at once instead of
	// holding the shutdown open for the rest of its wait.
	reqCtx, endRequests := context.WithCancel(context.Background())
	defer endRequests()
	srv := &http.Server{
		Addr:        o.listen,
		Handler:     handler,
		BaseContext: func(net.Listener) context.Context { return reqCtx },
	}
	srv.RegisterOnShutdown(endRequests)
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", o.listen, "workers", o.workers,
			"queue", o.queue, "trace_dir", o.traceDir)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining", "timeout", o.drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	rep := m.Drain(o.drainTimeout)
	if len(rep.Requeued) > 0 {
		logger.Info("requeued queued jobs for recovery", "jobs", fmt.Sprint(rep.Requeued))
	}
	if len(rep.Canceled) > 0 {
		logger.Info("canceled queued jobs (no -journal)", "jobs", fmt.Sprint(rep.Canceled))
	}
	logger.Info("stopped")
	return <-errc
}
