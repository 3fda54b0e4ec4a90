// Command loadgen replays corpus families as concurrent traffic against a
// running coalescing service (cmd/serve) and reports throughput, latency
// percentiles, and validity: every response body is decoded and checked
// against the instance it answers. All logic lives in
// internal/service/loadgen; this command only parses flags.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -families chordal,interval \
//	        -concurrency 64 -n 1024 -deadline-ms 100
//	loadgen -endpoint spill -families ssa-pressure,interval-pressure
//	loadgen -json -n 4096        # machine-readable report (ns durations)
//
// With -n larger than the instance count, instances repeat round-robin,
// which exercises the server's canonical-graph cache; the report counts
// the hits the server declared via the X-Regcoal-Cache header.
//
// Cluster runs: -addr accepts a comma-separated target list (several
// routers, or the workers directly) replayed round-robin. Responses that
// carry the router's X-Regcoal-Shard header are broken down per shard,
// so a run against a cluster shows which worker answered what:
//
//	loadgen -addr http://r1:8080,http://r2:8080 -families all -n 4096
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/faultinject"
	"regcoal/internal/service/loadgen"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "service base URL, or a comma-separated list of targets hit round-robin")
		endpoint    = flag.String("endpoint", "coalesce", "endpoint: coalesce, allocate, or spill")
		families    = flag.String("families", "all", "comma-separated corpus families, or 'all'")
		quick       = flag.Bool("quick", false, "small per-family instance counts")
		seed        = flag.Int64("seed", 20060408, "base corpus seed")
		n           = flag.Int("n", 0, "total requests (0 = one pass over the instances)")
		concurrency = flag.Int("concurrency", 64, "in-flight requests")
		deadlineMS  = flag.Int64("deadline-ms", 0, "per-request deadline (0 = server default)")
		format      = flag.String("format", "native", "graph encoding: native, text, dimacs")
		strategies  = flag.String("strategies", "", "comma-separated portfolio override")
		noCache     = flag.Bool("no-cache", false, "send no_cache on every request")
		stats       = flag.Bool("stats", true, "fetch and print /stats after the run")
		slowN       = flag.Int("slow", 0, "report the N slowest requests with trace IDs and per-phase timings")
		asJSON      = flag.Bool("json", false, "emit the report as JSON on stdout (durations in ns) instead of the text summary")
		chaos       = flag.String("chaos", "", "path to a fault-injection plan JSON applied client-side to generated traffic (see docs/FAULT_INJECTION.md)")
		churnNode   = flag.String("churn", "", "worker base URL to repeatedly remove from and re-add to the ring mid-run via the first target's /internal/topology (rehearses live resharding; see docs/RESHARDING.md)")
		churnEvery  = flag.Duration("churn-every", 2*time.Second, "interval between -churn membership flips")
	)
	flag.Parse()

	jobOpts := loadgen.JobOptions{Format: *format, DeadlineMS: *deadlineMS, NoCache: *noCache}
	if *strategies != "" {
		jobOpts.Strategies = strings.Split(*strategies, ",")
	}
	jobs, err := loadgen.BuildJobs(*families, *seed, *quick, jobOpts)
	if err != nil {
		fatal(err)
	}
	targets := strings.Split(*addr, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d instances -> %s/v1/%s, concurrency %d\n",
		len(jobs), strings.Join(targets, ","), *endpoint, *concurrency)

	// -chaos wraps the generator's own transport: target i is peer "w<i>"
	// in the plan, and drops/delays/blackholes hit requests before they
	// leave the client. Useful for rehearsing how dashboards and retry
	// policies read under a lossy network without touching the servers.
	var inj *faultinject.Injector
	var client *http.Client
	if *chaos != "" {
		plan, perr := faultinject.LoadPlan(*chaos)
		if perr != nil {
			fatal(perr)
		}
		inj = faultinject.New(plan)
		client = &http.Client{
			Timeout:   60 * time.Second,
			Transport: inj.Transport(nil, faultinject.NameMap(targets)),
		}
		fmt.Fprintf(os.Stderr, "loadgen: chaos plan %s armed (seed %d, %d rules)\n", *chaos, plan.Seed, len(plan.Rules))
	}

	// -churn flips one worker's membership while the load runs: remove,
	// wait an interval, re-add, repeat — every flip bumps the epoch and
	// triggers the handoff/migration machinery under real traffic. The
	// node is always re-added before exit so the ring ends whole.
	churnDone := make(chan struct{})
	churnStopped := make(chan struct{})
	if *churnNode != "" {
		go func() {
			defer close(churnStopped)
			removed := false
			flips := 0
			defer func() {
				if removed {
					if _, err := cluster.PostTopologyUpdate(client, targets[0], []string{*churnNode}, nil); err != nil {
						fmt.Fprintf(os.Stderr, "loadgen: churn re-add: %v\n", err)
					}
				}
				fmt.Fprintf(os.Stderr, "loadgen: churn flipped %s %d times\n", *churnNode, flips)
			}()
			tick := time.NewTicker(*churnEvery)
			defer tick.Stop()
			for {
				select {
				case <-churnDone:
					return
				case <-tick.C:
				}
				var add, remove []string
				if removed {
					add = []string{*churnNode}
				} else {
					remove = []string{*churnNode}
				}
				if _, err := cluster.PostTopologyUpdate(client, targets[0], add, remove); err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: churn: %v\n", err)
					continue
				}
				removed = !removed
				flips++
			}
		}()
	} else {
		close(churnStopped)
	}

	rep, err := loadgen.Run(context.Background(), loadgen.Options{
		Targets:     targets,
		Endpoint:    *endpoint,
		Concurrency: *concurrency,
		Requests:    *n,
		SlowN:       *slowN,
		Client:      client,
	}, jobs)
	close(churnDone)
	<-churnStopped
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		// The report's own fields (durations in ns) plus the throughput,
		// for scripts that compare ad-hoc load runs.
		body, err := json.MarshalIndent(struct {
			*loadgen.Report
			ThroughputRPS float64
		}{rep, rep.Throughput()}, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", body)
	} else {
		fmt.Print(rep.String())
	}

	if inj != nil {
		st := inj.Stats()
		fmt.Fprintf(os.Stderr, "loadgen: chaos injected %d drops, %d delays, %d errors\n", st.Drops, st.Delays, st.Errors)
	}
	if *stats {
		for _, target := range targets {
			if body, err := loadgen.FetchStats(context.Background(), nil, target); err == nil {
				fmt.Printf("server stats %s: %s\n", target, body)
			}
		}
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
