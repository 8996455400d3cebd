// The -ha chaos proof: a fleet workload against an in-process replica
// group, with one replica kill -9'd mid-run. The surviving replicas must
// detect the death via lease expiry, reclaim the journaled job, finish
// the remaining device rows (completed rows come back from the job's
// checkpoint in the shared directory — at least every row journaled before
// the kill), and produce a final report equivalent to an uninterrupted run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"p2go/internal/cache"
	"p2go/internal/cluster"
	"p2go/internal/fleet"
	"p2go/internal/report"
	"p2go/internal/service"
)

// haReplica is one in-process p2god replica: manager + cluster node +
// journal, all rooted in the shared group directory like N real daemons
// pointed at one -cluster-dir.
type haReplica struct {
	id   string
	node *cluster.Node
	m    *service.Manager
}

// runHAChaos runs the kill/takeover experiment and fails loudly on any
// divergence from the uninterrupted baseline.
func runHAChaos(short bool, seed int64) error {
	devices, replicas := 24, 3
	if short {
		devices, replicas = 10, 2
	}
	spec := fleet.Synthetic("quickstart", devices, seed, fleetPacketsPerDevice)
	spec.Name = "ha-chaos"

	// Uninterrupted baseline on a standalone daemon: the report every
	// chaos run must match (modulo timings, caching, and attribution).
	base := service.NewManager(service.ManagerConfig{Workers: 2, QueueDepth: 8})
	base.Start()
	baseline, err := runFleetJob(base, spec)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}
	base.Drain(30 * time.Second)
	fmt.Printf("baseline: %d devices optimized, fleet stages %d -> %d\n",
		baseline.Optimized, baseline.StagesBefore, baseline.StagesAfter)

	// The replica group: short lease TTL so death detection fits a CI
	// run, background cluster loops on (production wiring, real clocks).
	dir, err := os.MkdirTemp("", "p2go-ha-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ttl := 400 * time.Millisecond
	group := make([]*haReplica, 0, replicas)
	for i := 0; i < replicas; i++ {
		id := fmt.Sprintf("r%d", i+1)
		node, err := cluster.Join(cluster.Config{Dir: dir, ID: id, TTL: ttl})
		if err != nil {
			return fmt.Errorf("join %s: %w", id, err)
		}
		jrnl, err := service.OpenJournal(node.JournalPath(id))
		if err != nil {
			return fmt.Errorf("journal %s: %w", id, err)
		}
		m := service.NewManager(service.ManagerConfig{
			Workers:    2,
			QueueDepth: 8,
			Journal:    jrnl,
			Cache:      service.NewCache(0, filepath.Join(dir, "spill")),
			Cluster:    node,
		})
		m.Start()
		group = append(group, &haReplica{id: id, node: node, m: m})
	}
	victim, survivors := group[0], group[1:]
	defer func() {
		for _, r := range survivors {
			r.m.Drain(30 * time.Second)
		}
	}()

	st, err := victim.m.Submit(service.JobSpec{Kind: "fleet", Fleet: &spec})
	if err != nil {
		return fmt.Errorf("submit to %s: %w", victim.id, err)
	}

	// Kill once the run is provably mid-flight: at least two optimized
	// device rows journaled, with most of the fleet still uncomputed.
	journal := victim.node.JournalPath(victim.id)
	killDeadline := time.Now().Add(2 * time.Minute)
	for {
		if n, _ := journaledRows(journal, st.ID); n >= 2 {
			break
		}
		if s, ok := victim.m.Get(st.ID, false); ok && s.State.Terminal() {
			return fmt.Errorf("fleet job finished before the kill landed; grow the fleet")
		}
		if time.Now().After(killDeadline) {
			return fmt.Errorf("fleet job %s never journaled device rows", st.ID)
		}
		time.Sleep(time.Millisecond)
	}
	killedAt := time.Now()
	victim.m.Kill()
	// Kill closes the victim's journal before anything else, so these are
	// the device records it wrote; each row reached the checkpoint first.
	journaled, err := journaledRows(journal, st.ID)
	if err != nil {
		return err
	}
	if journaled < 2 {
		return fmt.Errorf("%d optimized device rows in the victim's journal after the kill, but 2 were read before it", journaled)
	}
	fmt.Printf("kill -9 %s mid-run (job %s, %d-device fleet, %d device rows journaled, lease TTL %s)\n",
		victim.id, st.ID, devices, journaled, ttl)

	// A survivor's cluster loop must notice the expired membership lease,
	// reclaim the job from the victim's journal, and finish it under the
	// original ID.
	var haRes *report.FleetResult
	var finishedBy, takenOverFrom string
	awaitDeadline := time.Now().Add(5 * time.Minute)
	for haRes == nil {
		for _, r := range survivors {
			s, ok := r.m.Get(st.ID, true)
			if !ok || !s.State.Terminal() {
				continue
			}
			if s.State != service.StateDone {
				return fmt.Errorf("reclaimed job on %s: %s (%s)", r.id, s.State, s.Error)
			}
			var res report.FleetResult
			if err := json.Unmarshal(s.Result, &res); err != nil {
				return fmt.Errorf("reclaimed result: %w", err)
			}
			haRes, finishedBy, takenOverFrom = &res, r.id, s.TakenOverFrom
		}
		if haRes == nil {
			if time.Now().After(awaitDeadline) {
				return fmt.Errorf("no survivor completed job %s after the kill", st.ID)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	fmt.Printf("takeover: %s detected the death and completed %s (taken over from %q) %.2fs after the kill\n",
		finishedBy, st.ID, takenOverFrom, time.Since(killedAt).Seconds())

	// The proof: the survivor's report is equivalent to the baseline.
	if diffs := report.FleetEquivalent(baseline, haRes); len(diffs) > 0 {
		return fmt.Errorf("post-takeover report diverges from the uninterrupted run:\n  %s",
			strings.Join(diffs, "\n  "))
	}
	if takenOverFrom != victim.id {
		return fmt.Errorf("takeover attributed to %q, want %s", takenOverFrom, victim.id)
	}
	takeovers := 0
	for _, r := range survivors {
		takeovers += metricValue(r.m, "p2god_cluster_takeover_jobs_total")
	}
	if takeovers < 1 {
		return fmt.Errorf("no survivor counted a takeover")
	}
	cached := 0
	for _, d := range haRes.Devices {
		if d.Cached {
			cached++
		}
	}
	if cached < journaled {
		return fmt.Errorf("%d rows re-served after the kill, but %d were journaled before it, each checkpointed before its record",
			cached, journaled)
	}
	fmt.Printf("equivalence: report matches the baseline (%d devices; %d rows re-served from the checkpoint, %d recomputed)\n",
		haRes.DeviceCount, cached, haRes.DeviceCount-cached)
	fmt.Printf("metrics: %d takeover(s) counted across %d survivor(s)\n", takeovers, len(survivors))
	return nil
}

// journaledRows counts the optimized device rows of a job in a journal's
// valid records (a record the victim was still writing is not one yet).
func journaledRows(path, jobID string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	recs, _ := cache.ReadRecords(data)
	n := 0
	for _, rec := range recs {
		var e struct{ Op, State string }
		if rec.Key != jobID || json.Unmarshal(rec.Val, &e) != nil {
			continue
		}
		if e.Op == "device" && e.State == report.FleetOptimized {
			n++
		}
	}
	return n, nil
}

// metricValue digs one counter out of a manager's Prometheus exposition.
func metricValue(m *service.Manager, name string) int {
	var buf bytes.Buffer
	m.Metrics().WritePrometheus(&buf, nil)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return int(v)
			}
		}
	}
	return 0
}
