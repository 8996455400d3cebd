// Command p2go runs the profile-guided optimizer: it profiles a P4_14
// program against a traffic trace and applies the three optimization
// phases, printing the observations and the Table 2-style stage history.
//
// Usage:
//
//	p2go profile  -workload ex1 [-seed N] [-json] [-trace out.json] [-log-level debug]
//	p2go optimize -workload ex1 [-seed N] [-passes phase4,phase2,phase3] [-emit out.p4] [-json]
//	p2go optimize -workload ex1 -trace trace.json   (span timeline; load in Perfetto)
//	p2go optimize -program prog.p4 -rules rules.txt -workload-trace ex1
//	p2go optimize -workload ex1 -faults "controller.down:from=10,to=60" -degrade fail-open
//	p2go submit   -server http://127.0.0.1:9095 -workload ex1 [-wait]
//	p2go status   -server http://127.0.0.1:9095 -id j-000001
//	p2go jobs     -server http://127.0.0.1:9095
//	p2go fleet submit -server http://127.0.0.1:9095 -devices 64 -workload quickstart [-wait]
//	p2go fleet submit -server http://127.0.0.1:9095 -spec fleet.json [-wait]
//	p2go fleet status -server http://127.0.0.1:9095 -id j-000001
//	p2go profiles list -server http://127.0.0.1:9095
//	p2go profiles get  -server http://127.0.0.1:9095 -id <capture-id> -o daemon.pprof
//	p2go passes
//	p2go list
//
// Workloads bundle a program, rules, and a calibrated trace; -program and
// -rules override the program/rules while borrowing a workload's trace.
// The submit/status/jobs subcommands are clients for the p2god service;
// -json emits the same machine-readable job-result schema p2god returns.
// The fleet verbs submit network-wide jobs: p2god optimizes every device
// in the topology against its own observed traffic and returns one
// aggregated report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"p2go"
	"p2go/internal/controller"
	"p2go/internal/core"
	"p2go/internal/faults"
	"p2go/internal/obs"
	"p2go/internal/report"
	"p2go/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "optimize":
		err = cmdOptimize(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "profiles":
		err = cmdProfiles(os.Args[2:])
	case "passes":
		err = cmdPasses()
	case "list":
		err = cmdList()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "p2go: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2go:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  p2go profile  -workload <name> [-seed N] [-set k=v,...] [-parallelism N] [-json] [-trace out.json] [-log-level debug]
  p2go optimize -workload <name> [-seed N] [-passes id,id,...] [-emit out.p4] [-json]
                [-tune] [-set k=v,...]   (knob search over @tunable parameters / pin them)
                [-parallelism N] [-trace out.json] [-log-level debug]
                [-faults <plan>] [-degrade fail-open|fail-closed|fallback] [-replicas N]
                (with -faults, equivalence is verified under injected failures:
                 e.g. -faults "controller.down:from=10,to=60;redirect.loss:p=0.3,seed=7")
  p2go serve    -workload <name> [-listen addr]   (optimize, then run the controller over TCP)
  p2go submit   -server <url> -workload <name> [-kind profile|optimize] [-wait] [-timeout d]   (p2god client)
  p2go status   -server <url> -id <job-id> [-timeout d]
  p2go jobs     -server <url> [-timeout d]
  p2go fleet submit -server <url> [-spec fleet.json | -devices N -workload <name> -seed S -packets N]
                [-passes id,id,...] [-device-parallelism N] [-wait]   (network-wide job)
  p2go fleet status -server <url> -id <fleet-job-id>
  p2go fleet jobs   -server <url>
  p2go profiles list    -server <url>   (the daemon's stored self-captures)
  p2go profiles get     -server <url> -id <capture-id> [-o out.pprof]
  p2go profiles capture -server <url>   (take a CPU+heap capture now)
  p2go passes   (list the registered optimization passes)
  p2go list`)
}

// loaded is the resolved input set for a run.
type loaded struct {
	prog     *p2go.Program
	cfg      *p2go.Config
	trace    *p2go.Trace
	workload string
	seed     int64
	// bindings are the -set tunable assignments (nil when unset).
	bindings map[string]int
	// tune is the workload's tune-pass configuration, nil when the
	// workload declares none.
	tune *workloads.TuneSpec
}

// observability is the CLI's tracing/logging surface: the -trace and
// -log-level flags shared by the profile and optimize subcommands.
type observability struct {
	traceFile string
	logLevel  string
	exporter  *obs.ChromeExporter
	logger    *slog.Logger
}

// flags registers -trace and -log-level on the subcommand's flag set.
func (o *observability) flags(fs *flag.FlagSet) {
	fs.StringVar(&o.traceFile, "trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto)")
	fs.StringVar(&o.logLevel, "log-level", "", "log verbosity on stderr: debug, info (default), warn, error")
}

// context builds the run context: a tracer when -trace was given, and the
// stderr logger at the requested level.
func (o *observability) context() (context.Context, error) {
	level, err := obs.ParseLevel(o.logLevel)
	if err != nil {
		return nil, err
	}
	o.logger = obs.NewLogger(os.Stderr, level)
	ctx := context.Background()
	if o.traceFile != "" {
		o.exporter = obs.NewChromeExporter()
		ctx = obs.WithTracer(ctx, obs.NewTracer(o.exporter))
	}
	return ctx, nil
}

// finish flushes the trace file, if one was requested.
func (o *observability) finish() error {
	if o.exporter == nil {
		return nil
	}
	f, err := os.Create(o.traceFile)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := o.exporter.Flush(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	o.logger.Info("wrote trace", "path", o.traceFile,
		"spans", len(o.exporter.Spans()))
	return nil
}

// load resolves the program, rules, and trace from flags.
func load(fs *flag.FlagSet, args []string) (*loaded, error) {
	workload := fs.String("workload", "ex1", "named workload (see 'p2go list')")
	programFile := fs.String("program", "", "P4_14 program file (overrides the workload's program)")
	rulesFile := fs.String("rules", "", "rules file (overrides the workload's rules)")
	seed := fs.Int64("seed", 1, "trace generator seed")
	set := fs.String("set", "", `tunable bindings, e.g. "sc_bf_cells=32768,other=10" (default: the @tunable declarations' defaults)`)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, err := workloads.Get(*workload)
	if err != nil {
		return nil, err
	}
	src := w.Source
	if *programFile != "" {
		data, err := os.ReadFile(*programFile)
		if err != nil {
			return nil, err
		}
		src = string(data)
	}
	prog, err := p2go.ParseProgram(src)
	if err != nil {
		return nil, fmt.Errorf("parse program: %w", err)
	}
	cfg := w.Config()
	if *rulesFile != "" {
		data, err := os.ReadFile(*rulesFile)
		if err != nil {
			return nil, err
		}
		cfg, err = p2go.ParseRules(string(data))
		if err != nil {
			return nil, fmt.Errorf("parse rules: %w", err)
		}
	}
	trace, err := w.Trace(*seed)
	if err != nil {
		return nil, err
	}
	var bindings map[string]int
	if *set != "" {
		if bindings, err = p2go.ParseBindings(*set); err != nil {
			return nil, err
		}
	}
	return &loaded{prog: prog, cfg: cfg, trace: trace, workload: *workload, seed: *seed,
		bindings: bindings, tune: w.Tune}, nil
}

// printJSON emits the shared machine-readable job-result schema.
func printJSON(r *report.JobResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the machine-readable job-result schema")
	parallelism := fs.Int("parallelism", 0, "replay shards (0 = all CPUs, 1 = sequential; stateful programs always replay sequentially)")
	var o observability
	o.flags(fs)
	in, err := load(fs, args)
	if err != nil {
		return err
	}
	ctx, err := o.context()
	if err != nil {
		return err
	}
	o.logger.Debug("profiling", "workload", in.workload, "seed", in.seed,
		"packets", len(in.trace.Packets), "parallelism", *parallelism)
	// Profiling runs on the concrete program: bind the @tunable symbols
	// (-set values, declared defaults for the rest).
	concrete, err := p2go.InstantiateProgram(in.prog, in.bindings)
	if err != nil {
		return err
	}
	prof, err := p2go.RunProfile(ctx, concrete, in.cfg, in.trace, *parallelism)
	if err != nil {
		return err
	}
	if err := o.finish(); err != nil {
		return err
	}
	if *jsonOut {
		return printJSON(report.FromProfile(in.workload, in.seed, prof))
	}
	fmt.Print(prof.Render())
	return nil
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	passes := fs.String("passes", "", "comma-separated pass schedule, e.g. phase4,phase2,phase3 (see 'p2go passes'; empty = default order)")
	emit := fs.String("emit", "", "write the optimized program to this file")
	emitCtl := fs.String("emit-controller", "", "write the controller program to this file")
	tune := fs.Bool("tune", false, "prepend the tune pass (knob search over @tunable parameters) to the schedule")
	faultPlan := fs.String("faults", "", `fault plan for chaos verification, e.g. "controller.down:from=10,to=60;redirect.loss:p=0.3,seed=7"`)
	degrade := fs.String("degrade", "", `degradation policy under faults: "fail-open" (default), "fail-closed", or "fallback"`)
	replicas := fs.Int("replicas", 2, "controller replicas for chaos verification")
	jsonOut := fs.Bool("json", false, "emit the machine-readable job-result schema")
	parallelism := fs.Int("parallelism", 0, "workers for replay shards and candidate probes (0 = all CPUs, 1 = sequential)")
	var o observability
	o.flags(fs)
	in, err := load(fs, args)
	if err != nil {
		return err
	}
	ctx, err := o.context()
	if err != nil {
		return err
	}
	o.logger.Debug("optimizing", "workload", in.workload, "seed", in.seed,
		"packets", len(in.trace.Packets), "parallelism", *parallelism)
	opts := p2go.Options{
		Passes:      splitPasses(*passes),
		Parallelism: *parallelism,
		Bindings:    in.bindings,
	}
	opts.Tune = core.WorkloadTune(in.tune)
	if *tune {
		if opts.Passes == nil {
			opts.Passes = p2go.DefaultPassIDs()
		}
		opts.Passes = append([]string{"tune"}, opts.Passes...)
	}
	res, err := p2go.OptimizeContext(ctx, in.prog, in.cfg, in.trace, opts)
	if err != nil {
		return err
	}
	o.logger.Debug("optimized", "stages_before", res.StagesBefore(),
		"stages_after", res.StagesAfter(), "offloaded", len(res.OffloadedTables))
	jr := report.FromResult(in.workload, in.seed, res)
	// Without a fault plan or a policy the check runs on the plain
	// deployment: one controller, no faults.
	underFaults := *faultPlan != "" || *degrade != ""
	vopts := p2go.ResilientOptions{Replicas: 1}
	var policy controller.DegradationPolicy
	if underFaults {
		set, err := faults.ParseSet(*faultPlan)
		if err != nil {
			return err
		}
		if policy, err = controller.ParsePolicy(*degrade); err != nil {
			return err
		}
		vopts = p2go.ResilientOptions{Replicas: *replicas, Policy: policy, Faults: set}
	}
	check, err := p2go.VerifyChaosEquivalence(ctx, res, in.cfg, in.trace, vopts)
	if err != nil {
		return err
	}
	checkLine := check.String()
	var checkErr error
	if underFaults {
		checkLine = fmt.Sprintf("%d packets (%d redirected): %d degraded, %d silent divergences",
			check.Packets, check.Redirected, check.Degraded, check.Silent)
		jr.Resilience = report.FromChaos(check, *faultPlan, policy.String())
		jr.Equivalence = "equivalent under faults (every divergence counted)"
		if !check.Clean() {
			jr.Equivalence = "SILENT DIVERGENCE"
			checkErr = fmt.Errorf("chaos verification: %d silent divergence(s) (first: %s)",
				check.Silent, check.First)
		}
	} else {
		jr.Equivalence = checkLine
		// A tuned program intentionally diverges from the default-bindings
		// original by up to the accuracy floor; label that divergence as
		// the accepted trade rather than a failure. Any other divergence
		// fails the command once the report is out.
		if !check.Equivalent() {
			checkErr = fmt.Errorf("behavior check: %s", check)
			for _, k := range res.Tunables {
				if k.Value != k.Default {
					note := fmt.Sprintf(" [%.2f%% divergence vs the default bindings is the tuned accuracy trade; pin -set %q to compare strictly]",
						100*float64(check.Mismatches)/float64(check.Packets), p2go.FormatBindings(res.Bindings))
					jr.Equivalence += note
					checkLine += note
					checkErr = nil
					break
				}
			}
		}
	}
	if err := o.finish(); err != nil {
		return err
	}
	if *jsonOut {
		if err := printJSON(jr); err != nil {
			return err
		}
	} else {
		fmt.Print(res.Report())
		fmt.Println("\nbehavior check:", checkLine)
	}
	if *emit != "" {
		if err := os.WriteFile(*emit, []byte(p2go.PrintProgram(res.Optimized)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *emit)
	}
	if *emitCtl != "" && res.ControllerProgram != nil {
		if err := os.WriteFile(*emitCtl, []byte(p2go.PrintProgram(res.ControllerProgram)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *emitCtl)
	}
	return checkErr
}

// cmdServe optimizes the workload and serves the generated controller
// program behind the TCP packet-in protocol until interrupted; SIGINT and
// SIGTERM shut it down gracefully (close the listener, drain in-flight
// connections).
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9099", "packet-in listen address")
	in, err := load(fs, args)
	if err != nil {
		return err
	}
	res, err := p2go.Optimize(in.prog, in.cfg, in.trace, p2go.Options{Bindings: in.bindings})
	if err != nil {
		return err
	}
	if res.ControllerProgram == nil {
		return fmt.Errorf("nothing was offloaded; no controller to serve")
	}
	fmt.Printf("optimized %d -> %d stages; offloaded %v\n",
		res.StagesBefore(), res.StagesAfter(), res.OffloadedTables)
	ctl, err := p2go.NewController(res.ControllerProgram, in.cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("controller serving the offloaded segment on %s (Ctrl-C to stop)\n", l.Addr())
	srv := controller.NewServer(ctl)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case s := <-sig:
			fmt.Printf("received %s; draining controller connections...\n", s)
			srv.Close()
		case <-done:
		}
	}()
	err = srv.Serve(l)
	signal.Stop(sig)
	close(done)
	return err
}

// splitPasses parses a comma-separated -passes value; empty means "use
// the default schedule" (Options.Passes nil).
func splitPasses(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

// cmdPasses lists the registered optimization passes.
func cmdPasses() error {
	fmt.Println("passes (in default order; schedule selectable ones with 'p2go optimize -passes id,id,...'):")
	for _, p := range p2go.Passes() {
		var notes []string
		if p.Implicit {
			notes = append(notes, "always runs first")
		}
		if p.ReadOnly {
			notes = append(notes, "read-only; used by offload reporting")
		}
		if p.Default {
			notes = append(notes, "default")
		}
		if p.OptIn {
			notes = append(notes, "opt-in; schedule explicitly (e.g. 'p2go optimize -tune')")
		}
		fmt.Printf("  %-16s %s (%s)\n", p.ID, p.Doc, strings.Join(notes, ", "))
	}
	return nil
}

func cmdList() error {
	for _, name := range workloads.Names() {
		w, err := workloads.Get(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %s\n%-12s paper: %s\n", w.Name, w.Description, "", w.Paper)
	}
	return nil
}
