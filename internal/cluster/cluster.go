// Package cluster coordinates a p2god replica group through the shared
// filesystem the artifact cache already spills to: N daemon processes
// share one directory, announce themselves with fsynced membership
// leases, and claim per-job ownership leases with TTL expiry and epoch
// fencing. There is no network protocol and no elected leader — the only
// shared substrate is the directory, which is exactly the deployment
// shape the disk-spill layer created (replicas on one host or one shared
// volume).
//
// The safety argument is the classic lease + fencing-token one:
//
//   - A lease names a holder and an expiry. Holders renew well before
//     expiry; a holder that stops renewing (kill -9, partition from the
//     directory) loses the lease when it expires.
//   - Every acquisition of a job lease — first claim or takeover — wins a
//     strictly higher epoch. Epochs are decided by an atomic
//     link(2)-based compare-and-swap on the lease file name, so exactly
//     one contender wins each epoch even when several replicas race to
//     reclaim a dead peer's work.
//   - Before committing a result, the worker re-checks its lease: if a
//     higher epoch exists (someone took the job over while the worker
//     was paused or partitioned), the commit is fenced off. A stale
//     replica can therefore compute, but never publish.
//
// Time is injectable (Config.Now) so expiry and fencing are testable
// with a synthetic clock; the file formats are JSON-per-file, written
// with the same write-temp, fsync, rename discipline as the crash-atomic
// artifact spills.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"p2go/internal/cache"
	"p2go/internal/faults"
)

// Lease-state errors. ErrHeld and ErrFenced are sentinel-wrapped so
// callers can classify with errors.Is.
var (
	// ErrHeld means another replica holds an unexpired lease on the job.
	ErrHeld = errors.New("cluster: lease held by another replica")
	// ErrFenced means the caller's lease was superseded (a higher epoch
	// exists, or the lease is gone): its writes must be discarded.
	ErrFenced = errors.New("cluster: lease fenced (superseded by a newer epoch)")
)

// DefaultTTL is the lease time-to-live when Config.TTL is zero. Renewal
// should run at a small fraction of this (the daemon uses TTL/3).
const DefaultTTL = 5 * time.Second

// Config describes one replica's membership in the group.
type Config struct {
	// Dir is the shared coordination directory. All replicas of a group
	// must use the same one (typically alongside the shared spill dir).
	Dir string
	// ID names this replica; it must be unique in the group and stable
	// across restarts (it keys the replica's journal file).
	ID string
	// TTL is the lease time-to-live; 0 means DefaultTTL.
	TTL time.Duration
	// Faults injects coordination failures (faults.LeaseLost,
	// faults.Partition, faults.SlowDisk); nil is inert.
	Faults *faults.Set
	// Now is the clock; nil means time.Now. Tests drive expiry with it.
	Now func() time.Time
}

// Node is one replica's handle on the group. All methods are safe for
// concurrent use: the mutable state lives in lease files, and every
// mutation is an atomic rename or link.
type Node struct {
	cfg Config
	now func() time.Time
}

// memberRecord is a membership lease file: "replica ID is alive until
// Expires". Dying simply means ceasing to renew.
type memberRecord struct {
	ID      string `json:"id"`
	Expires int64  `json:"expires_unix_nano"`
	Renewed int64  `json:"renewed_unix_nano"`
}

// Member is one replica's membership lease as read from the group dir.
type Member struct {
	ID      string
	Expires time.Time
	Renewed time.Time
}

// jobRecord is a job-ownership lease file at one epoch.
type jobRecord struct {
	Key     string `json:"key"`
	Holder  string `json:"holder"`
	Epoch   int64  `json:"epoch"`
	Expires int64  `json:"expires_unix_nano"`
}

// JobLease is a held (or observed) job-ownership lease. Holders keep the
// value returned by AcquireJob and pass it to RenewJob/CheckJob; the
// epoch inside is the fencing token.
type JobLease struct {
	Key     string
	Holder  string
	Epoch   int64
	Expires time.Time
}

// Join registers the replica in the group directory and writes its first
// membership lease. The directory layout is created as needed.
func Join(cfg Config) (*Node, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("cluster: empty group directory")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: empty replica ID")
	}
	if strings.ContainsAny(cfg.ID, "/\\ \t\n") {
		return nil, fmt.Errorf("cluster: replica ID %q contains path or space characters", cfg.ID)
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	n := &Node{cfg: cfg, now: cfg.Now}
	if n.now == nil {
		n.now = time.Now
	}
	for _, d := range []string{n.memberDir(), n.jobDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	if err := n.Renew(); err != nil {
		return nil, err
	}
	return n, nil
}

// ID returns the replica's identifier.
func (n *Node) ID() string { return n.cfg.ID }

// TTL returns the group's lease time-to-live.
func (n *Node) TTL() time.Duration { return n.cfg.TTL }

// Dir returns the shared coordination directory.
func (n *Node) Dir() string { return n.cfg.Dir }

// JournalPath returns the conventional journal location for a replica in
// this group; replicas journal into the shared directory so survivors
// can read a dead peer's accepted-but-unfinished jobs.
func (n *Node) JournalPath(id string) string {
	return filepath.Join(n.cfg.Dir, "journal-"+id+".jsonl")
}

func (n *Node) memberDir() string { return filepath.Join(n.cfg.Dir, "members") }
func (n *Node) jobDir() string    { return filepath.Join(n.cfg.Dir, "jobs") }

// Renew extends this replica's membership lease to now+TTL. A renewal
// that fails (injected lease loss, partition, disk error) leaves the
// previous lease aging toward expiry — the caller's loop just tries
// again next tick.
func (n *Node) Renew() error {
	if err := n.cfg.Faults.Err(faults.LeaseLost); err != nil {
		return fmt.Errorf("cluster: renew membership: %w", err)
	}
	if err := n.cfg.Faults.Err(faults.Partition); err != nil {
		return fmt.Errorf("cluster: renew membership: %w", err)
	}
	now := n.now()
	rec := memberRecord{
		ID:      n.cfg.ID,
		Expires: now.Add(n.cfg.TTL).UnixNano(),
		Renewed: now.UnixNano(),
	}
	return n.writeAtomic(filepath.Join(n.memberDir(), n.cfg.ID+".lease"), rec, os.Rename)
}

// Leave removes this replica's membership lease (a graceful goodbye;
// peers treat the replica as dead immediately instead of after TTL).
func (n *Node) Leave() error {
	return os.Remove(filepath.Join(n.memberDir(), n.cfg.ID+".lease"))
}

// Members lists every membership lease in the group, including expired
// ones (the caller distinguishes with Alive). Order is by replica ID.
func (n *Node) Members() ([]Member, error) {
	if err := n.cfg.Faults.Err(faults.Partition); err != nil {
		return nil, fmt.Errorf("cluster: list members: %w", err)
	}
	entries, err := os.ReadDir(n.memberDir())
	if err != nil {
		return nil, fmt.Errorf("cluster: list members: %w", err)
	}
	var out []Member
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".lease") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(n.memberDir(), e.Name()))
		if err != nil {
			continue // racing with a rename; next scan sees it
		}
		var rec memberRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" {
			continue
		}
		out = append(out, Member{
			ID:      rec.ID,
			Expires: time.Unix(0, rec.Expires),
			Renewed: time.Unix(0, rec.Renewed),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Alive reports whether a member's lease has not yet expired.
func (n *Node) Alive(m Member) bool {
	return n.now().Before(m.Expires)
}

// AcquireJob claims the job lease for key at the next epoch. It succeeds
// when the job has never been leased, when the current lease expired
// (takeover: the epoch strictly increases, fencing the old holder), or
// when this replica already holds it (the existing lease is returned
// renewed). It fails with ErrHeld while another replica's lease is live,
// and with ErrHeld when it loses the acquisition race.
func (n *Node) AcquireJob(key string) (*JobLease, error) {
	if err := n.cfg.Faults.Err(faults.LeaseLost); err != nil {
		return nil, fmt.Errorf("cluster: acquire %s: %w", key, err)
	}
	if err := n.cfg.Faults.Err(faults.Partition); err != nil {
		return nil, fmt.Errorf("cluster: acquire %s: %w", key, err)
	}
	cur, err := n.readJob(key)
	if err != nil {
		return nil, err
	}
	now := n.now()
	if cur != nil {
		if cur.Holder == n.cfg.ID {
			// Re-acquiring our own lease (e.g. after a restart that kept
			// the ID): renew it in place at the same epoch.
			lease := &JobLease{Key: key, Holder: cur.Holder, Epoch: cur.Epoch, Expires: now.Add(n.cfg.TTL)}
			if err := n.RenewJob(lease); err != nil {
				return nil, err
			}
			return lease, nil
		}
		if now.Before(time.Unix(0, cur.Expires)) {
			return nil, fmt.Errorf("%w: %s holds %s (epoch %d)", ErrHeld, cur.Holder, key, cur.Epoch)
		}
	}
	epoch := int64(1)
	if cur != nil {
		epoch = cur.Epoch + 1
	}
	if !validEpoch(epoch) {
		return nil, fmt.Errorf("cluster: acquire %s: no epoch after %d", key, cur.Epoch)
	}
	rec := jobRecord{Key: key, Holder: n.cfg.ID, Epoch: epoch, Expires: now.Add(n.cfg.TTL).UnixNano()}
	target := n.jobPath(key, epoch)
	if err := n.writeAtomic(target, rec, os.Link); err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("%w: lost the epoch-%d race for %s", ErrHeld, epoch, key)
		}
		return nil, err
	}
	// We own the new epoch; older epoch files are dead weight now.
	n.removeEpochsBelow(key, epoch)
	return &JobLease{Key: key, Holder: n.cfg.ID, Epoch: epoch, Expires: time.Unix(0, rec.Expires)}, nil
}

// RenewJob extends a held lease to now+TTL. It re-verifies the epoch
// first: renewing a superseded lease fails with ErrFenced rather than
// resurrecting it.
func (n *Node) RenewJob(l *JobLease) error {
	if err := n.cfg.Faults.Err(faults.LeaseLost); err != nil {
		return fmt.Errorf("cluster: renew %s: %w", l.Key, err)
	}
	if err := n.cfg.Faults.Err(faults.Partition); err != nil {
		return fmt.Errorf("cluster: renew %s: %w", l.Key, err)
	}
	cur, err := n.readJob(l.Key)
	if err != nil {
		return err
	}
	if cur == nil || cur.Epoch != l.Epoch || cur.Holder != l.Holder {
		return n.fenceErr(l, cur)
	}
	rec := jobRecord{Key: l.Key, Holder: l.Holder, Epoch: l.Epoch, Expires: n.now().Add(n.cfg.TTL).UnixNano()}
	if err := n.writeAtomic(n.jobPath(l.Key, l.Epoch), rec, os.Rename); err != nil {
		return err
	}
	l.Expires = time.Unix(0, rec.Expires)
	return nil
}

// CheckJob is the commit-time fence: it succeeds only while the caller's
// epoch is still the newest lease on the job. A paused or partitioned
// replica whose work was taken over gets ErrFenced here and must discard
// its result.
func (n *Node) CheckJob(l *JobLease) error {
	if err := n.cfg.Faults.Err(faults.Partition); err != nil {
		return fmt.Errorf("cluster: check %s: %w", l.Key, err)
	}
	cur, err := n.readJob(l.Key)
	if err != nil {
		return err
	}
	if cur == nil || cur.Epoch != l.Epoch || cur.Holder != l.Holder {
		return n.fenceErr(l, cur)
	}
	return nil
}

// ReleaseJob removes the lease after the job's outcome is durable. Only
// the current holder's release takes effect; a fenced holder's release
// is a no-op (the new owner's lease stays).
func (n *Node) ReleaseJob(l *JobLease) error {
	cur, err := n.readJob(l.Key)
	if err != nil {
		return err
	}
	if cur == nil || cur.Epoch != l.Epoch || cur.Holder != l.Holder {
		return nil
	}
	return os.Remove(n.jobPath(l.Key, l.Epoch))
}

// JobLeaseState reads the current (highest-epoch) lease on key; ok is
// false when the job has no lease.
func (n *Node) JobLeaseState(key string) (JobLease, bool, error) {
	cur, err := n.readJob(key)
	if err != nil || cur == nil {
		return JobLease{}, false, err
	}
	return JobLease{Key: key, Holder: cur.Holder, Epoch: cur.Epoch, Expires: time.Unix(0, cur.Expires)}, true, nil
}

func (n *Node) fenceErr(l *JobLease, cur *jobRecord) error {
	if cur == nil {
		return fmt.Errorf("%w: lease for %s (epoch %d) no longer exists", ErrFenced, l.Key, l.Epoch)
	}
	return fmt.Errorf("%w: %s epoch %d held by %s supersedes epoch %d",
		ErrFenced, l.Key, cur.Epoch, cur.Holder, l.Epoch)
}

// readJob returns the highest-epoch lease record for key, or nil when
// the job has none. Unparseable files (a reader racing a writer on a
// filesystem without atomic rename semantics would see them; ours has
// them, so in practice only corruption does) are ignored, and so are
// files whose epoch is not valid (validEpoch) or not spelled the way
// jobPath spells it: ReleaseJob could never remove "ep+7" or "ep07".
func (n *Node) readJob(key string) (*jobRecord, error) {
	if err := n.cfg.Faults.Err(faults.Partition); err != nil {
		return nil, fmt.Errorf("cluster: read lease %s: %w", key, err)
	}
	prefix := sanitize(key) + ".ep"
	entries, err := os.ReadDir(n.jobDir())
	if err != nil {
		return nil, fmt.Errorf("cluster: read lease %s: %w", key, err)
	}
	var best *jobRecord
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		suffix := name[len(prefix):]
		epoch, err := strconv.ParseInt(suffix, 10, 64)
		if err != nil || !validEpoch(epoch) || strconv.FormatInt(epoch, 10) != suffix {
			continue
		}
		if best != nil && epoch <= best.Epoch {
			continue
		}
		data, err := os.ReadFile(filepath.Join(n.jobDir(), name))
		if err != nil {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			continue
		}
		rec.Epoch = epoch // the file name is authoritative for the CAS
		r := rec
		best = &r
	}
	return best, nil
}

// validEpoch reports whether a lease file may hold epoch: epochs start
// at 1, and a takeover must be able to win epoch+1. A file at 0, below it,
// or at math.MaxInt64 is corrupt: taking one over would wrap to a negative
// epoch that every later reader ranks below the lease it superseded,
// fencing the new holder at once and wedging the job.
func validEpoch(epoch int64) bool { return epoch >= 1 && epoch < math.MaxInt64 }

func (n *Node) jobPath(key string, epoch int64) string {
	return filepath.Join(n.jobDir(), fmt.Sprintf("%s.ep%d", sanitize(key), epoch))
}

// removeEpochsBelow garbage-collects superseded epoch files; best effort.
func (n *Node) removeEpochsBelow(key string, epoch int64) {
	prefix := sanitize(key) + ".ep"
	entries, err := os.ReadDir(n.jobDir())
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		old, err := strconv.ParseInt(name[len(prefix):], 10, 64)
		if err == nil && old < epoch {
			_ = os.Remove(filepath.Join(n.jobDir(), name))
		}
	}
}

// writeAtomic writes a lease record crash-atomically (cache.WriteAtomic):
// a kill -9 at any point leaves either the old record or the new one,
// never a torn file. publish is os.Rename to replace a record, or
// os.Link to create one only if absent: link's os.ErrExist is the
// compare-and-swap that decides each epoch's single winner.
func (n *Node) writeAtomic(path string, v any, publish func(oldpath, newpath string) error) error {
	if n.cfg.Faults.Fire(faults.SlowDisk) {
		time.Sleep(2 * time.Millisecond)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := cache.WriteAtomic(path, data, publish); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// sanitize maps a lease key to a safe file-name stem.
func sanitize(key string) string {
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}
