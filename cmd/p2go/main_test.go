package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2go/internal/report"
	"p2go/internal/service"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatal(errRun)
	}
	return out
}

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdProfile(t *testing.T) {
	if err := cmdProfile([]string{"-workload", "quickstart"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfile([]string{"-workload", "no-such"}); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestCmdOptimizeEmits(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "opt.p4")
	ctl := filepath.Join(dir, "ctl.p4")
	err := cmdOptimize([]string{"-workload", "failure", "-emit", out, "-emit-controller", ctl})
	if err != nil {
		t.Fatal(err)
	}
	optSrc, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(optSrc), "To_Ctl") {
		t.Error("emitted optimized program lacks the redirect table")
	}
	ctlSrc, err := os.ReadFile(ctl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ctlSrc), "FailureAlarm") {
		t.Error("emitted controller program lacks the offloaded alarm")
	}
}

// TestCmdOptimizeFailsOnMismatch: syncookie seed 6's memory reduction
// changes where 24 packets go. The command still prints its report, then
// fails naming the first diverging packet; under -tune the same kind of
// divergence is the labelled accuracy trade and the command succeeds.
func TestCmdOptimizeFailsOnMismatch(t *testing.T) {
	var err error
	out := captureStdout(t, func() error {
		err = cmdOptimize([]string{"-workload", "syncookie", "-seed", "6"})
		return nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "behavior check: 24/7700 mismatches (first: packet 1008:") {
		t.Errorf("err = %v, want the behavior check's first mismatch", err)
	}
	if !strings.Contains(out, "pipeline stages") || !strings.Contains(out, "behavior check: 24/7700") {
		t.Errorf("report not printed before failing:\n%s", out)
	}
	out = captureStdout(t, func() error {
		return cmdOptimize([]string{"-workload", "syncookie", "-seed", "6", "-tune", "-json"})
	})
	if !strings.Contains(out, "tuned accuracy trade") {
		t.Errorf("-tune run did not label its divergence:\n%s", out)
	}
}

func TestCmdOptimizeDisabledPhases(t *testing.T) {
	if err := cmdOptimize([]string{"-workload", "quickstart", "-passes", "phase3"}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdProfileJSON checks the -json flag emits the shared job-result
// schema the p2god service returns.
func TestCmdProfileJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdProfile([]string{"-workload", "quickstart", "-json"})
	})
	var jr report.JobResult
	if err := json.Unmarshal([]byte(out), &jr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if jr.Kind != "profile" || jr.Workload != "quickstart" || jr.Seed != 1 {
		t.Errorf("header = kind=%q workload=%q seed=%d", jr.Kind, jr.Workload, jr.Seed)
	}
	if jr.Profile == nil || jr.Profile.TotalPackets == 0 {
		t.Error("missing profile payload")
	}
}

func TestCmdOptimizeJSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdOptimize([]string{"-workload", "quickstart", "-json"})
	})
	var jr report.JobResult
	if err := json.Unmarshal([]byte(out), &jr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if jr.Kind != "optimize" || len(jr.History) == 0 {
		t.Errorf("bad result: kind=%q history=%d rows", jr.Kind, len(jr.History))
	}
	if jr.Equivalence == "" {
		t.Error("CLI JSON should carry the behavior-check verdict")
	}
	if jr.OptimizedP4 == "" {
		t.Error("missing optimized_p4")
	}
}

// TestClientSubcommands drives submit/status/jobs against an in-process
// p2god instance.
func TestClientSubcommands(t *testing.T) {
	m := service.NewManager(service.ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Drain(5 * time.Second)
	})

	out := captureStdout(t, func() error {
		return cmdSubmit([]string{"-server", srv.URL, "-workload", "quickstart",
			"-kind", "profile", "-wait", "-poll", "20ms"})
	})
	var st service.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit output not JSON: %v\n%s", err, out)
	}
	if st.State != service.StateDone || len(st.Result) == 0 {
		t.Fatalf("submit -wait = %+v", st)
	}

	out = captureStdout(t, func() error {
		return cmdStatus([]string{"-server", srv.URL, "-id", st.ID})
	})
	if !strings.Contains(out, st.ID) {
		t.Errorf("status output lacks the job ID: %s", out)
	}

	out = captureStdout(t, func() error {
		return cmdJobs([]string{"-server", srv.URL})
	})
	if !strings.Contains(out, st.ID) {
		t.Errorf("jobs output lacks the job ID: %s", out)
	}

	if err := cmdStatus([]string{"-server", srv.URL, "-id", "j-404404"}); err == nil {
		t.Error("status of unknown job should fail")
	}
	if err := cmdStatus([]string{"-server", srv.URL}); err == nil {
		t.Error("status without -id should fail")
	}
}

// TestSubmitWaitIsNotPaced: `submit -wait` reports when the job ends — the
// server holds the status request and answers at the terminal transition —
// so a -poll far longer than the job no longer sets how long the command
// takes (at the old 200 ms default a 13 ms job reported after 200 ms; at
// this 10 s one it would take 10 s). The same holds for a resubmission,
// which the POST itself answers.
func TestSubmitWaitIsNotPaced(t *testing.T) {
	m := service.NewManager(service.ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Drain(5 * time.Second)
	})
	for _, wantCached := range []bool{false, true} {
		start := time.Now()
		out := captureStdout(t, func() error {
			return cmdSubmit([]string{"-server", srv.URL, "-workload", "quickstart",
				"-kind", "profile", "-wait", "-poll", "10s"})
		})
		took := time.Since(start)
		var st service.JobStatus
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			t.Fatalf("submit output not JSON: %v\n%s", err, out)
		}
		if st.State != service.StateDone || len(st.Result) == 0 || st.Cached != wantCached {
			t.Fatalf("submit -wait = state %s, cached %v, %d result bytes; want done, cached %v",
				st.State, st.Cached, len(st.Result), wantCached)
		}
		if took >= time.Second {
			t.Errorf("submit -wait -poll 10s took %s (cached %v), want under 1s", took, wantCached)
		}
	}
}

// TestFleetSubcommands drives fleet submit/status/jobs against an
// in-process p2god instance, both synthetic and from a spec file.
func TestFleetSubcommands(t *testing.T) {
	m := service.NewManager(service.ManagerConfig{Workers: 1, QueueDepth: 4})
	m.Start()
	srv := httptest.NewServer(service.NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Drain(5 * time.Second)
	})

	out := captureStdout(t, func() error {
		return cmdFleet([]string{"submit", "-server", srv.URL, "-devices", "3",
			"-workload", "quickstart", "-packets", "30", "-wait", "-poll", "20ms"})
	})
	var st service.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("fleet submit output not JSON: %v\n%s", err, out)
	}
	if st.Kind != "fleet" || st.State != service.StateDone {
		t.Fatalf("fleet submit -wait = kind %q state %s: %s", st.Kind, st.State, st.Error)
	}
	var res report.FleetResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("fleet result not JSON: %v", err)
	}
	if res.DeviceCount != 3 || res.Optimized != 3 {
		t.Errorf("fleet result = %d devices, %d optimized; want 3/3", res.DeviceCount, res.Optimized)
	}

	// A spec file is the POST /fleets body verbatim.
	specFile := filepath.Join(t.TempDir(), "fleet.json")
	spec, _ := json.Marshal(map[string]any{
		"name":       "from-file",
		"devices":    []map[string]any{{"name": "edge", "workload": "quickstart"}},
		"injections": []map[string]any{{"device": "edge", "workload": "quickstart", "count": 20}},
	})
	if err := os.WriteFile(specFile, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() error {
		return cmdFleet([]string{"submit", "-server", srv.URL, "-spec", specFile})
	})
	var st2 service.JobStatus
	if err := json.Unmarshal([]byte(out), &st2); err != nil {
		t.Fatalf("spec-file submit output not JSON: %v\n%s", err, out)
	}
	if st2.Workload != "from-file" {
		t.Errorf("spec-file fleet named %q, want from-file", st2.Workload)
	}

	out = captureStdout(t, func() error {
		return cmdFleet([]string{"status", "-server", srv.URL, "-id", st.ID})
	})
	if !strings.Contains(out, st.ID) {
		t.Errorf("fleet status output lacks the job ID: %s", out)
	}
	out = captureStdout(t, func() error {
		return cmdFleet([]string{"jobs", "-server", srv.URL})
	})
	if !strings.Contains(out, st.ID) || !strings.Contains(out, st2.ID) {
		t.Errorf("fleet jobs output lacks submitted IDs: %s", out)
	}

	if err := cmdFleet([]string{"bogus"}); err == nil {
		t.Error("unknown fleet verb should fail")
	}
	if err := cmdFleet(nil); err == nil {
		t.Error("bare 'p2go fleet' should fail with usage")
	}
	if err := cmdFleet([]string{"status", "-server", srv.URL}); err == nil {
		t.Error("fleet status without -id should fail")
	}
}

func TestLoadOverrides(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "p.p4")
	src := `
header_type m_t { fields { x : 8; } }
metadata m_t m;
action a() { no_op(); }
table t { actions { a; } default_action : a; }
control ingress { apply(t); }
`
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	rules := filepath.Join(dir, "r.txt")
	if err := os.WriteFile(rules, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfile([]string{"-workload", "quickstart", "-program", prog, "-rules", rules}); err != nil {
		t.Fatal(err)
	}
}
