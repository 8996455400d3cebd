package service

import (
	"time"

	"p2go/internal/cluster"
)

// This file is the manager's replica-group side: the background lease
// loop, reclaiming work from dead peers' journals, and the in-process
// kill -9 used by the chaos harness. The lease mechanics themselves live
// in internal/cluster; here they are wired to the job table.

// Cluster returns the replica-group node, or nil when standalone.
func (m *Manager) Cluster() *cluster.Node { return m.cfg.Cluster }

// clusterLoop renews leases and scans for dead peers until baseCtx is
// canceled. It is the production driver for RenewJobLeases/TakeoverScan;
// chaos tests call those directly under a synthetic clock instead.
func (m *Manager) clusterLoop(every time.Duration) {
	defer m.clusterWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-t.C:
			m.ClusterTick()
		}
	}
}

// ClusterTick runs one iteration of the replica-group maintenance work:
// renew the membership lease, renew every held job lease, then scan for
// dead peers and reclaim their pending jobs.
func (m *Manager) ClusterTick() {
	node := m.cfg.Cluster
	if node == nil {
		return
	}
	m.mu.Lock()
	dead := m.killed
	m.mu.Unlock()
	if dead {
		return
	}
	m.metrics.LeaseRenewed(node.Renew() == nil)
	m.RenewJobLeases()
	m.TakeoverScan()
}

// RenewJobLeases extends the lease of every non-terminal job this
// replica owns. A renewal that fails (injected loss, partition) is
// counted and left for the next tick — the lease keeps aging, and if the
// failures persist past TTL a peer will legitimately take the job over.
func (m *Manager) RenewJobLeases() {
	node := m.cfg.Cluster
	if node == nil {
		return
	}
	m.mu.Lock()
	leases := make([]*cluster.JobLease, 0, len(m.jobs))
	for _, job := range m.jobs {
		if job.lease != nil && !job.state.Terminal() {
			leases = append(leases, job.lease)
		}
	}
	m.mu.Unlock()
	for _, l := range leases {
		m.metrics.LeaseRenewed(node.RenewJob(l) == nil)
	}
}

// TakeoverScan looks for group members whose membership lease has
// expired, reads each dead peer's journal for accepted-but-unfinished
// jobs, and reclaims them: acquire the job's digest lease at a higher
// epoch (fencing the dead holder in case it is merely paused), re-submit
// under the original job ID so clients polling that ID get the result,
// and append a takeover record to the peer's journal so a second scan —
// or the peer restarting — does not reclaim it again.
//
// Re-running a reclaimed job is cheap in proportion to how far the dead
// replica got: single jobs re-serve straight from the shared artifact
// cache if the result landed, and fleet jobs recompute only the device
// rows that never spilled.
//
// It returns how many jobs were reclaimed.
func (m *Manager) TakeoverScan() int {
	node := m.cfg.Cluster
	if node == nil {
		return 0
	}
	members, err := node.Members()
	if err != nil {
		return 0 // partitioned from the group dir; next tick retries
	}
	reclaimed := 0
	for _, mem := range members {
		if mem.ID == node.ID() || node.Alive(mem) {
			continue
		}
		peerJournal := node.JournalPath(mem.ID)
		pending, _, err := ReadPending(peerJournal)
		if err != nil || len(pending) == 0 {
			continue
		}
		for _, p := range pending {
			m.mu.Lock()
			_, known := m.jobs[p.ID]
			m.mu.Unlock()
			if known {
				continue // already ours (e.g. reclaimed on a prior scan)
			}
			spec := p.Spec
			if err := spec.normalize(); err != nil {
				continue
			}
			lease, err := node.AcquireJob("job:" + spec.digest())
			if err != nil {
				// Held: either the peer is alive after all (membership
				// lease lagging) or another survivor beat us to it.
				m.metrics.LeaseAcquireFailed()
				continue
			}
			if _, err := m.submit(spec, p.ID, mem.ID, lease); err != nil {
				// Queue full or draining; give the lease back so another
				// replica (or a later scan) can claim the job.
				_ = node.ReleaseJob(lease)
				continue
			}
			// Mark the peer's journal only after the job is durably ours
			// (accepted record in our journal): a crash between the two
			// leaves the job claimable, never lost.
			_ = AppendTakeover(peerJournal, p.ID, node.ID())
			m.metrics.TakeoverJob()
			reclaimed++
		}
	}
	return reclaimed
}

// Kill simulates kill -9 for in-process chaos tests: the journal file is
// closed (subsequent appends vanish, like writes from a dead process),
// every running job's context is canceled, the queue is discarded, and —
// critically — no leases are released and no terminal journal records
// are written. Peers see the replica's membership lease expire and
// reclaim its pending jobs, exactly as with a real dead process.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.killed || m.draining {
		m.mu.Unlock()
		return
	}
	m.killed = true
	m.draining = true // reject submissions, guard double queue-close
	close(m.drainCh)
	m.mu.Unlock()
	// Order matters: close the journal before canceling contexts, so the
	// cancellation fallout (failed/canceled outcomes) cannot reach disk.
	_ = m.cfg.Journal.Close()
	m.baseCancel()
	close(m.queue)
	m.clusterWG.Wait()
	m.wg.Wait()
}
