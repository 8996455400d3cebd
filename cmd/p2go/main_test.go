package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p2go/internal/core"
	"p2go/internal/report"
	"p2go/internal/service"
	"p2go/internal/workloads"
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

// TestCmdOptimizeRejectsLateTune: tune binds its candidates from the source
// program, so a schedule that runs it after another pass would throw that
// pass's work away (failure's offload was reported applied while the final
// program was the pristine binding). The schedule fails validation before
// anything is replayed or reported.
func TestCmdOptimizeRejectsLateTune(t *testing.T) {
	var err error
	out := captureStdout(t, func() error {
		err = cmdOptimize([]string{"-workload", "failure", "-passes", "phase2,phase3,phase4,tune"})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), `pass "tune" must be the first entry of the schedule`) {
		t.Errorf("err = %v, want the tune-first validation error", err)
	}
	if out != "" {
		t.Errorf("a rejected schedule printed a report:\n%s", out)
	}
}

// TestCmdOptimizeUnderFaults: ex1 verified behind two controller replicas
// through a down window and 30% redirect loss. The command exits 0 and its
// JSON counts degraded verdicts but no silent divergence.
func TestCmdOptimizeUnderFaults(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdOptimize([]string{"-workload", "ex1", "-json",
			"-faults", "controller.down:from=10,to=60;redirect.loss:p=0.3,seed=7"})
	})
	var jr report.JobResult
	if err := json.Unmarshal([]byte(out), &jr); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if !strings.Contains(out, `"silent_divergences": 0`) || jr.Resilience == nil {
		t.Fatalf("no resilience report with zero silent divergences:\n%s", out)
	}
	if jr.Resilience.DegradedVerdicts == 0 {
		t.Errorf("the fault plan degraded no verdict: %+v", jr.Resilience)
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

// TestCLIMatchesDaemon: `p2go optimize -json` and `p2go profile -json` print
// the report an in-process p2god job of the same spec stores, for every
// workload (and maglev under -tune), once what only one side fills is
// masked: timings, the daemon's resource block, and the CLI's behavior
// check. Each job gets a fresh manager, so its cache counters start where a
// CLI run's do.
func TestCLIMatchesDaemon(t *testing.T) {
	type run struct {
		args []string
		spec service.JobSpec
	}
	var runs []run
	for _, w := range workloads.Names() {
		runs = append(runs,
			run{[]string{"optimize", "-workload", w, "-json"}, service.JobSpec{Kind: "optimize", Workload: w}},
			run{[]string{"profile", "-workload", w, "-json"}, service.JobSpec{Kind: "profile", Workload: w}})
	}
	runs = append(runs, run{[]string{"optimize", "-workload", "maglev", "-tune", "-json"},
		service.JobSpec{Kind: "optimize", Workload: "maglev", Passes: append([]string{"tune"}, core.DefaultPassIDs()...)}})
	for _, r := range runs {
		t.Run(strings.Join(r.args[:len(r.args)-1], "_"), func(t *testing.T) {
			cmd := cmdOptimize
			if r.args[0] == "profile" {
				cmd = cmdProfile
			}
			cli := captureStdout(t, func() error { return cmd(r.args[1:]) })
			daemon := daemonResult(t, r.spec)
			if got, want := maskedReport(t, cli), maskedReport(t, string(daemon)); got != want {
				t.Errorf("CLI and daemon reports differ\nCLI:    %s\ndaemon: %s", got, want)
			}
		})
	}
}

// daemonResult runs spec as a job of a fresh in-process manager and returns
// its stored report.
func daemonResult(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	m := service.NewManager(service.ManagerConfig{Workers: 1, QueueDepth: 1})
	m.Start()
	defer m.Drain(5 * time.Second)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for !st.State.Terminal() {
		st, _ = m.Wait(context.Background(), st.ID, time.Minute, true)
	}
	if st.State != service.StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	return st.Result
}

// maskedReport re-encodes a job report without its duration_seconds fields
// (at any depth) and its resources, equivalence and resilience blocks.
func maskedReport(t *testing.T, report string) string {
	t.Helper()
	var v map[string]any
	if err := json.Unmarshal([]byte(report), &v); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, report)
	}
	for _, k := range []string{"resources", "equivalence", "resilience"} {
		delete(v, k)
	}
	var mask func(any)
	mask = func(x any) {
		switch x := x.(type) {
		case map[string]any:
			delete(x, "duration_seconds")
			for _, e := range x {
				mask(e)
			}
		case []any:
			for _, e := range x {
				mask(e)
			}
		}
	}
	mask(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// reportGolden is the SHA-256 of maskedReport over `p2go optimize -json
// -parallelism 1` per run: the default schedule on every workload, and -tune
// on the four workloads with tunables. Observation text, evidence, details,
// stage history and per-pass cache counts are all inside the digest, so a
// refactor of the passes that claims to change no output must leave every
// row alone; a change that means to move a row updates it on purpose.
var reportGolden = map[string]string{
	"ex1":               "9d09ecbf5df8dd1656e8a533f3bee5730d776fb34eca2e719099fc9bb06b1dbb",
	"failure":           "6f178e46a946e0b9ae854f18d0ebfeaa3237f3a30cc0e96a6019322d46bfcdd2",
	"l2l3_acl":          "d308c524f392254730d91b19202084a882b84c54176db9e817c5f64e7fcde613",
	"maglev":            "ebad63f6bb6c862f73a81dbbb3f9c6958d896d7204f541b007d76c9a031f34a5",
	"natgre":            "cdd117cebd7d96f6c1c0b2bc66463d19c5644d282f96d67d8b81e860bb733a5b",
	"quickstart":        "9ed9a87ac6f2afd506ed91cc3d28e751e5810abd0b839411dbb69145232c41f4",
	"sourceguard":       "02cce46776a344d2f9c7d754b90eafa0df1c4bd8ac25eb1c72e9116863241618",
	"stress":            "7c48ecad26fe4993c8cc12d245d5b003b363cc74e210b6ecb5e3b5dc37d29d63",
	"syncookie":         "bc7548a448b43667f6fe72276dbc1d249579d734f5a25a574f96412ebeeb0a08",
	"sourceguard_-tune": "8f4c4ffefd04e49439b2f0c8e60292fd9291c8a26a417d3006e2c43d3f3bc067",
	"failure_-tune":     "fe1ad324fd385b45baca687706a2ae1e271ec9b046d3d9dcdd730af1255b7bca",
	"maglev_-tune":      "8cc298a442766fdc837abb3bfb3534c34fc78afcf2e2434c41ef4d126f13af40",
	"syncookie_-tune":   "432aa8552047ea57c692485ef57f239eaa6021e18888eeefd9f660c44446899f",
}

// TestOptimizeReportGolden pins the whole optimize report, which the
// fragment checks of the core tests do not.
func TestOptimizeReportGolden(t *testing.T) {
	var runs [][]string
	for _, w := range workloads.Names() {
		runs = append(runs, []string{"-workload", w})
	}
	for _, w := range []string{"sourceguard", "failure", "maglev", "syncookie"} {
		runs = append(runs, []string{"-workload", w, "-tune"})
	}
	for _, args := range runs {
		name := strings.Join(args[1:], "_")
		t.Run(name, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return cmdOptimize(append(args, "-parallelism", "1", "-json"))
			})
			sum := sha256.Sum256([]byte(maskedReport(t, out)))
			if got := hex.EncodeToString(sum[:]); got != reportGolden[name] {
				t.Errorf("optimize %s: report digest %s, golden %s", strings.Join(args, " "), got, reportGolden[name])
			}
		})
	}
}
