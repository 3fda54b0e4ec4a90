// Command serve runs the online coalescing service: an HTTP/JSON API that
// races a strategy portfolio under per-request deadlines over a shared
// worker pool, with canonical-graph result caching and backpressure.
//
// Usage:
//
//	serve -addr :8080 -workers 8 -queue 64 -cache 4096 \
//	      -deadline 2s -max-deadline 30s
//
// Endpoints: POST /v1/coalesce, POST /v1/allocate, POST /v1/spill,
// POST /v1/batch, GET /livez + /healthz (liveness), GET /readyz
// (readiness; 503 while draining), GET /metrics (Prometheus), GET /stats
// (JSON). With -pprof, the net/http/pprof profile endpoints are
// additionally mounted under /debug/pprof/ (off by default — profiles
// reveal internals and cost CPU; enable when diagnosing a pooled-path
// regression, see README). See README.md for the request/response
// schema. SIGINT/SIGTERM shut down gracefully: readiness flips to 503 so
// load balancers stop routing here, in-flight requests (including whole
// batches) drain, the listener closes, then the pool stops — all within
// -shutdown-grace.
//
// Cluster mode (-cluster) runs this process as one node of a
// consistent-hash sharded tier (see docs/ARCHITECTURE.md):
//
//	serve -cluster -role worker -addr :8081 \
//	      -self http://10.0.0.1:8081 \
//	      -peers http://10.0.0.1:8081,http://10.0.0.2:8081
//	serve -cluster -role router -addr :8080 \
//	      -peers http://10.0.0.1:8081,http://10.0.0.2:8081
//
// A worker requires -self, its own URL as it appears in -peers (or, with
// -join, as the router will list it); without it serve exits with status
// 1. Every node builds the same consistent-hash ring from the peer list,
// so the ring's virtual-node count is fixed, not a flag. A worker embeds
// the full single-node service plus the tiered cache (peer fill from the
// shard that owns a canonical hash) and two-lane admission control. A
// router holds no solver state: it shards requests across -peers by
// canonical graph hash and splices /v1/batch fan-outs back together
// byte-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/faultinject"
	"regcoal/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "bounded submission queue; full = 429 (0 = 4×workers)")
		cacheCap    = flag.Int("cache", 4096, "result cache capacity in entries (negative disables)")
		deadline    = flag.Duration("deadline", 2*time.Second, "default per-request strategy-race deadline")
		maxDeadline = flag.Duration("max-deadline", 30*time.Second, "upper clamp on requested deadlines")
		portfolio   = flag.String("portfolio", "", "comma-separated default coalescing portfolio (empty = built-in)")
		grace       = flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown window")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; see README)")

		clusterOn = flag.Bool("cluster", false, "run as a cluster node (see -role, -peers, -self)")
		role      = flag.String("role", "worker", "cluster role: worker or router (with -cluster)")
		peers     = flag.String("peers", "", "comma-separated worker base URLs (the shard set; same list on every node)")
		self      = flag.String("self", "", "this worker's base URL as it appears in -peers (worker role; required)")
		replicas  = flag.Int("replicas", cluster.DefaultReplicas, "replica-set size R: workers owning each hash range (same value on every node)")

		joinURL     = flag.String("join", "", "worker: router base URL to announce this node to at startup (live join) and to leave on shutdown")
		handoffRate = flag.Float64("handoff-rate", 0, "worker: max cache entries streamed per second during a reshard handoff (0 = unlimited)")
		retryBudget = flag.Int("retry-budget", 0, "router: total attempts per request across replicas (0 = default 3)")
		hedgeAfter  = flag.Duration("hedge-after", 250*time.Millisecond, "router: launch a hedged attempt on the next replica after this long (0 disables)")
		faultPlan   = flag.String("fault-plan", "", "path to a fault-injection plan JSON (off when empty; see docs/FAULT_INJECTION.md)")
	)
	flag.Parse()

	peerList := splitList(*peers)
	var plan *faultinject.Plan
	if *faultPlan != "" {
		p, err := faultinject.LoadPlan(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		plan = p
		log.Printf("serve: fault injection armed from %s (seed %d, %d rules)", *faultPlan, p.Seed, len(p.Rules))
	}
	if *clusterOn && *role == "router" {
		runRouter(*addr, peerList, *replicas, *retryBudget, *hedgeAfter, *grace, plan)
		return
	}
	if *clusterOn && *role != "worker" {
		fmt.Fprintf(os.Stderr, "serve: unknown -role %q (want worker or router)\n", *role)
		os.Exit(1)
	}
	if *clusterOn && *self == "" {
		// Without its own URL a worker can neither find its ranges on the
		// ring nor replicate: it would serve as a lone node while the
		// router still sends it a shard.
		fmt.Fprintln(os.Stderr, "serve: -cluster -role worker requires -self")
		os.Exit(1)
	}

	cfg := service.Config{
		Workers:         *workers,
		QueueCap:        *queue,
		CacheCapacity:   *cacheCap,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
	}
	if *portfolio != "" {
		cfg.Portfolio = strings.Split(*portfolio, ",")
	}
	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	var handler http.Handler = svc.Handler()
	var clusterWorker *cluster.Worker
	if *clusterOn {
		if *joinURL != "" && !contains(peerList, *self) {
			// Joining an existing ring: the node set is -peers plus this
			// node. The router's broadcast (or the first stale-epoch 409)
			// overwrites this provisional view with the cluster's real one.
			peerList = append(peerList, *self)
		}
		wcfg := cluster.WorkerConfig{
			Self:        *self,
			Peers:       peerList,
			Replicas:    *replicas,
			HandoffRate: *handoffRate,
		}
		var inj *faultinject.Injector
		if plan != nil {
			inj = faultinject.New(plan)
			wcfg.Client = &http.Client{
				Timeout:   2 * time.Second,
				Transport: inj.Transport(nil, faultinject.NameMap(peerList)),
			}
		}
		worker, werr := cluster.NewWorker(svc, wcfg)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "serve:", werr)
			os.Exit(1)
		}
		handler = worker
		clusterWorker = worker
		if inj != nil {
			// This worker's name in the plan is its position in -peers.
			name := *self
			for i, p := range peerList {
				if p == *self {
					name = fmt.Sprintf("w%d", i)
					break
				}
			}
			handler = inj.Middleware(name, handler)
		}
		log.Printf("serve: cluster worker %s, %d peers, R=%d", *self, len(peerList), *replicas)
	}
	if *pprofOn {
		// Explicit registration on our own mux — importing net/http/pprof
		// for its side effect would silently expose the profiles on the
		// DefaultServeMux even without the flag. With the pooled solve
		// path, the heap and allocs profiles are the first stop when a
		// latency or RSS regression appears in production: a hot
		// sync.Pool shows up as near-zero steady-state allocation there.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serve: listening on %s (workers=%d queue=%d cache=%d deadline=%v)",
		*addr, *workers, *queue, *cacheCap, *deadline)

	if clusterWorker != nil && *joinURL != "" {
		// Announce the join once the listener is up: the router bumps the
		// epoch, broadcasts the new view, and peers start streaming this
		// node its share of the cache.
		wire, jerr := cluster.PostTopologyUpdate(nil, *joinURL, []string{*self}, nil)
		if jerr != nil {
			log.Printf("serve: join %s: %v (serving anyway; an internal RPC will reconcile)", *joinURL, jerr)
		} else {
			log.Printf("serve: joined ring at epoch %d (%d nodes)", wire.Epoch, len(wire.Nodes))
		}
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("serve: %v, draining", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if clusterWorker != nil && *joinURL != "" {
			// Leave the ring first: the router reassigns this node's hash
			// ranges and broadcasts, which triggers this worker's own
			// handoff — stream the reassigned cache entries and sessions
			// to their new owners before the service stops answering.
			if wire, lerr := cluster.PostTopologyUpdate(nil, *joinURL, nil, []string{*self}); lerr != nil {
				log.Printf("serve: leave %s: %v", *joinURL, lerr)
			} else {
				log.Printf("serve: left ring at epoch %d", wire.Epoch)
			}
			if herr := clusterWorker.HandoffWait(ctx); herr != nil {
				log.Printf("serve: handoff: %v", herr)
			}
		}
		// Drain order matters: flip readiness first so load balancers and
		// cluster routers stop sending traffic here, wait for in-flight
		// work (a /v1/batch holds InFlight for its whole fan-out), then
		// close the listener and stop the pool.
		svc.BeginDrain()
		if err := svc.Drain(ctx); err != nil {
			log.Printf("serve: drain: %v", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("serve: shutdown: %v", err)
		}
		svc.Close()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			svc.Close()
			log.Fatalf("serve: %v", err)
		}
	}
}

// runRouter serves the stateless sharding tier: no solver, no pool — just
// the consistent-hash proxy over the worker set.
func runRouter(addr string, workerURLs []string, replicas, retryBudget int, hedgeAfter, grace time.Duration, plan *faultinject.Plan) {
	rcfg := cluster.RouterConfig{
		Workers:     workerURLs,
		Replicas:    replicas,
		RetryBudget: retryBudget,
		HedgeAfter:  hedgeAfter,
	}
	if plan != nil {
		inj := faultinject.New(plan)
		rcfg.Client = &http.Client{
			Timeout:   60 * time.Second,
			Transport: inj.Transport(nil, faultinject.NameMap(workerURLs)),
		}
	}
	router, err := cluster.NewRouter(rcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           router,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("serve: cluster router on %s over %d workers (R=%d, hedge %v)", addr, len(workerURLs), replicas, hedgeAfter)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("serve: %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("serve: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
