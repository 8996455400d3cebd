// p2god HTTP client subcommands: submit, status, jobs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"p2go/internal/service"
)

// serverFlags registers the replica-set flags: -server for the classic
// single endpoint and -servers for an HA replica set. The two compose
// (duplicates are dropped), so pointing -servers at a 2-replica group
// while keeping the default -server just works.
type serverFlags struct {
	server  *string
	servers *string
	timeout *time.Duration
}

func addServerFlags(fs *flag.FlagSet) *serverFlags {
	return &serverFlags{
		server:  fs.String("server", "http://127.0.0.1:9095", "p2god base URL"),
		servers: fs.String("servers", "", "comma-separated p2god replica set, e.g. http://h1:9095,http://h2:9095 (overrides -server)"),
		// The per-request HTTP deadline. Without it a dead or wedged p2god
		// would hang the CLI forever (the zero-timeout http.DefaultClient
		// trap); with a replica set it also bounds how long one dead
		// replica can delay failover to the next.
		timeout: fs.Duration("timeout", 30*time.Second, "HTTP request timeout (0 = wait forever)"),
	}
}

// client builds the replica-set-aware service client from the parsed
// flags. All verbs share its retry policy: jittered exponential backoff
// honoring Retry-After, failing over across the set.
func (sf *serverFlags) client() *service.Client {
	var servers []string
	if *sf.servers != "" {
		servers = strings.Split(*sf.servers, ",")
	} else {
		servers = []string{*sf.server}
	}
	return service.NewClient(servers, *sf.timeout)
}

// printStatus renders a JobStatus indented; the server sends it compact.
func printStatus(st service.JobStatus) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// cmdSubmit posts a job to p2god; with -wait it stays until the job is
// terminal — the server holds the status request open and answers when the
// job ends — and prints the full status (result included).
func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	sf := addServerFlags(fs)
	spec := jobFlags(fs, "")
	fs.StringVar(&spec.Kind, "kind", "optimize", `job kind: "profile" or "optimize"`)
	passes := fs.String("passes", "", "comma-separated pass schedule, e.g. phase4,phase2,phase3 (see 'p2go passes'; empty = default order)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job timeout on the server (0 = server default)")
	fs.IntVar(&spec.Parallelism, "parallelism", 0, "job workers for replay shards and candidate probes (0 = server default)")
	wait := fs.Bool("wait", false, "wait until the job finishes and print the result")
	poll := fs.Duration("poll", 200*time.Millisecond, "with -wait: pause before re-asking a server that answered early (draining, mid-takeover, or too old to hold the request)")
	waitTimeout := fs.Duration("wait-timeout", 10*time.Minute, "give up on -wait after this long (0 = wait forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := sf.client()
	spec.Passes, spec.TimeoutSeconds = splitPasses(*passes), jobTimeout.Seconds()
	st, err := client.SubmitJob(*spec)
	if err != nil {
		return err
	}
	if !*wait {
		return printStatus(st)
	}
	if st, err = client.AwaitJob(st.ID, *poll, *waitTimeout); err != nil {
		return err
	}
	if err := printStatus(st); err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	return nil
}

// cmdStatus prints one job's status (result included once done), asking
// every configured replica until one knows the ID.
func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	sf := addServerFlags(fs)
	id := fs.String("id", "", "job ID (from 'p2go submit')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("missing -id")
	}
	st, err := sf.client().Job(*id)
	if err != nil {
		return err
	}
	return printStatus(st)
}

// cmdJobs lists jobs merged across the replica set.
func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	sf := addServerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sts, err := sf.client().Jobs()
	if err != nil {
		return err
	}
	if sts == nil {
		sts = []service.JobStatus{}
	}
	data, err := json.MarshalIndent(sts, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
