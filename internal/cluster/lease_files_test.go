package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// expiredLease is a job lease file holding valid JSON whose holder died
// long ago.
const expiredLease = `{"key":"job","holder":"dead","epoch":1,"expires_unix_nano":1}`

// TestCorruptEpochDoesNotWedgeJob: an expired lease at an epoch no takeover
// can exceed used to be taken over at epoch MinInt64 — a lease CheckJob
// fenced at once, and every later AcquireJob lost "the
// epoch--9223372036854775808 race" for good. Such a file is corrupt now,
// like one that does not parse: acquisition ignores it, and the job stays
// claimable.
func TestCorruptEpochDoesNotWedgeJob(t *testing.T) {
	for _, suffix := range []string{"9223372036854775807", "0", "-3"} {
		t.Run("ep"+suffix, func(t *testing.T) {
			dir := t.TempDir()
			clk := newFakeClock()
			a := testNode(t, dir, "a", clk, nil)
			b := testNode(t, dir, "b", clk, nil)
			if err := os.WriteFile(filepath.Join(dir, "jobs", "job.ep"+suffix), []byte(expiredLease), 0o644); err != nil {
				t.Fatal(err)
			}
			lease, err := a.AcquireJob("job")
			if err != nil {
				t.Fatalf("acquire over a corrupt epoch file: %v", err)
			}
			if lease.Epoch != 1 {
				t.Errorf("acquired epoch %d, want 1", lease.Epoch)
			}
			if err := a.CheckJob(lease); err != nil {
				t.Fatalf("fresh lease fenced: %v", err)
			}
			clk.Advance(2 * time.Second)
			stolen, err := b.AcquireJob("job")
			if err != nil {
				t.Fatalf("takeover: %v", err)
			}
			if err := b.CheckJob(stolen); err != nil {
				t.Fatalf("taken-over lease fenced: %v", err)
			}
			if err := a.CheckJob(lease); !errors.Is(err, ErrFenced) {
				t.Errorf("old holder's check = %v, want ErrFenced", err)
			}
		})
	}
}

// TestLastEpochRefusesTakeover: the lease at MaxInt64-1 is not taken over,
// because readers would ignore a lease at MaxInt64.
func TestLastEpochRefusesTakeover(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := testNode(t, dir, "a", clk, nil)
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job.ep9223372036854775806"), []byte(expiredLease), 0o644); err != nil {
		t.Fatal(err)
	}
	if lease, err := a.AcquireJob("job"); err == nil || errors.Is(err, ErrHeld) {
		t.Fatalf("acquire = %+v, %v; want a plain error", lease, err)
	}
}

// TestNonCanonicalEpochIgnored: "job.ep+7" parses as epoch 7, but
// ReleaseJob removes "job.ep7", so a lease read from it outlived its
// release and blocked every other replica until its expiry.
func TestNonCanonicalEpochIgnored(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := testNode(t, dir, "a", clk, nil)
	held := `{"holder":"a","expires_unix_nano":9223372036854775807}`
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job.ep+7"), []byte(held), 0o644); err != nil {
		t.Fatal(err)
	}
	lease, err := a.AcquireJob("job")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ReleaseJob(lease); err != nil {
		t.Fatal(err)
	}
	if st, ok, err := a.JobLeaseState("job"); ok || err != nil {
		t.Errorf("after release: %+v held=%v err=%v, want no lease", st, ok, err)
	}
}

// leaseFileName reports whether name can be created as one file in a lease
// directory.
func leaseFileName(name string) bool {
	return name != "" && name != "." && name != ".." && len(name) <= 128 &&
		!strings.ContainsAny(name, "/\x00")
}

// FuzzLeaseFiles writes arbitrary bytes under arbitrary names as a member
// and a job lease file, then drives the readers and the acquisition over
// them: nothing may panic, every AcquireJob that succeeds — the first
// claim and the takeover after it expires — returns a lease CheckJob
// accepts, and the holder's release leaves no lease at its epoch.
func FuzzLeaseFiles(f *testing.F) {
	// testdata/fuzz/FuzzLeaseFiles holds the epoch edge cases, the
	// MaxInt64 reproducer among them.
	f.Add("z.lease", []byte(`[]`), "job.ep007", []byte(`{"holder":"b","expires_unix_nano":9223372036854775807}`))
	f.Add("w.lease", []byte{}, "job.ep3", []byte(`{"holder":`))
	f.Fuzz(func(t *testing.T, memberName string, member []byte, jobName string, job []byte) {
		dir := t.TempDir()
		clk := newFakeClock()
		a := testNode(t, dir, "a", clk, nil)
		b := testNode(t, dir, "b", clk, nil)
		if leaseFileName(memberName) {
			_ = os.WriteFile(filepath.Join(dir, "members", memberName), member, 0o644)
		}
		if leaseFileName(jobName) {
			_ = os.WriteFile(filepath.Join(dir, "jobs", jobName), job, 0o644)
		}
		if _, err := a.Members(); err != nil {
			t.Fatalf("members: %v", err)
		}
		if _, _, err := a.JobLeaseState("job"); err != nil {
			t.Fatalf("lease state: %v", err)
		}
		lease, err := a.AcquireJob("job")
		if err != nil {
			return
		}
		if err := a.CheckJob(lease); err != nil {
			t.Fatalf("acquired %+v, then fenced: %v", lease, err)
		}
		held, by := lease, a
		clk.Advance(24 * time.Hour)
		if stolen, err := b.AcquireJob("job"); err == nil {
			if err := b.CheckJob(stolen); err != nil {
				t.Fatalf("took over %+v, then fenced: %v", stolen, err)
			}
			held, by = stolen, b
		}
		if err := by.ReleaseJob(held); err != nil {
			t.Fatalf("release %+v: %v", held, err)
		}
		if st, ok, _ := by.JobLeaseState("job"); ok && st.Holder == held.Holder && st.Epoch == held.Epoch {
			t.Fatalf("released %+v, still held: %+v", held, st)
		}
	})
}
