package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"regcoal/internal/faultinject"
	"regcoal/internal/service"
)

// InProcess is a whole cluster — N workers plus a router — running on
// loopback listeners inside one process. It is the topology used by the
// differential tests, the CI smoke job, and the cluster bench scenario:
// real HTTP over real sockets, but no process management.
type InProcess struct {
	Router    *Router
	RouterURL string
	Workers   []*InProcessWorker

	// RouterInjector is the router's fault injector (nil without a plan):
	// it decides the fate of router→worker requests.
	RouterInjector *faultinject.Injector

	servers   []*http.Server // one per worker, same index as Workers
	routerSrv *http.Server
	opts      InProcessOptions
	urls      []string // every worker URL ever launched, for fault naming
}

// InProcessWorker is one running shard.
type InProcessWorker struct {
	Service *service.Server
	Worker  *Worker
	URL     string
	// Injector is this worker's fault injector (nil without a plan): it
	// decides server-side faults on the worker's own solve endpoints and
	// client-side faults on its peer traffic.
	Injector *faultinject.Injector
}

// InProcessOptions shape the topology.
type InProcessOptions struct {
	// Service configures each worker's service (each worker gets its own
	// pool and cache).
	Service service.Config
	// Worker configures the shard layer; Self and Peers are filled in.
	Worker WorkerConfig
	// Router configures the front door; Workers is filled in.
	Router RouterConfig
	// Fault, when set, arms deterministic fault injection across the
	// topology. Worker i is peer "w<i>" in the plan's rules. Each
	// component holds its own Injector over the same plan, so request
	// counters advance per side per component — exactly the isolation a
	// real deployment (one injector per process) would have.
	Fault *faultinject.Plan
}

// StartInProcess launches n workers and a router on loopback. Callers
// must Close the result.
func StartInProcess(n int, opts InProcessOptions) (*InProcess, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one worker, got %d", n)
	}
	c := &InProcess{opts: opts}
	fail := func(err error) (*InProcess, error) {
		c.Close()
		return nil, err
	}

	// Listeners first: every worker needs the full peer URL list before
	// its Worker can be constructed.
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return fail(fmt.Errorf("cluster: listen: %w", err))
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	c.urls = append(c.urls, urls...)

	for i, ln := range listeners {
		if _, err := c.launch(ln, urls); err != nil {
			for _, l := range listeners[i+1:] {
				l.Close()
			}
			return fail(err)
		}
	}

	rcfg := opts.Router
	rcfg.Workers = urls
	rcfg.MaxVertices = firstPositive(rcfg.MaxVertices, c.Workers[0].Service.Config().MaxVertices)
	rcfg.MaxBatch = firstPositive(rcfg.MaxBatch, c.Workers[0].Service.Config().MaxBatch)
	if rcfg.Replicas == 0 {
		rcfg.Replicas = opts.Worker.Replicas
	}
	if opts.Fault != nil {
		c.RouterInjector = faultinject.New(opts.Fault)
		rcfg.Client = &http.Client{
			Timeout:   60 * time.Second,
			Transport: c.RouterInjector.Transport(nil, faultinject.NameMap(urls)),
		}
	}
	router, err := NewRouter(rcfg)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("cluster: listen: %w", err))
	}
	srv := &http.Server{Handler: router}
	go srv.Serve(ln)
	c.Router = router
	c.RouterURL = "http://" + ln.Addr().String()
	c.routerSrv = srv
	return c, nil
}

// AddWorker launches one more worker on loopback and returns it. The new
// worker starts from the router's current node set plus itself (at epoch
// 1 — its first internal RPC or the join broadcast reconciles it), but
// joining the serving rotation is a separate, explicit step: call
// UpdateTopology(add=[w.URL]) to announce it, exactly as `serve -join`
// does. Fault plans name the new worker "w<n>" in launch order.
func (c *InProcess) AddWorker() (*InProcessWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	url := "http://" + ln.Addr().String()
	c.urls = append(c.urls, url)
	return c.launch(ln, append(append([]string(nil), c.Router.Topology().View().Nodes...), url))
}

// launch starts one worker serving on ln with the given peer list, which
// must include the worker's own URL. Fault plans name it "w<i>" by
// launch order; its injector names peers from every URL launched so far.
// On failure ln is closed.
func (c *InProcess) launch(ln net.Listener, peers []string) (*InProcessWorker, error) {
	url := "http://" + ln.Addr().String()
	svc, err := service.New(c.opts.Service)
	if err != nil {
		ln.Close()
		return nil, err
	}
	wcfg := c.opts.Worker
	wcfg.Self, wcfg.Peers = url, peers
	var inj *faultinject.Injector
	if c.opts.Fault != nil {
		inj = faultinject.New(c.opts.Fault)
		wcfg.Client = &http.Client{
			Timeout:   2 * time.Second,
			Transport: inj.Transport(nil, faultinject.NameMap(c.urls)),
		}
	}
	w, err := NewWorker(svc, wcfg)
	if err != nil {
		svc.Close()
		ln.Close()
		return nil, err
	}
	var handler http.Handler = w
	if inj != nil {
		handler = inj.Middleware(fmt.Sprintf("w%d", len(c.Workers)), handler)
	}
	node := &InProcessWorker{Service: svc, Worker: w, URL: url, Injector: inj}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	c.Workers = append(c.Workers, node)
	c.servers = append(c.servers, srv)
	return node, nil
}

// UpdateTopology applies an add/remove membership edit through the
// router's admin endpoint — the same wire a deployment would POST — and
// returns the installed view.
func (c *InProcess) UpdateTopology(add, remove []string) (TopologyWire, error) {
	return postTopologyUpdate(http.DefaultClient, c.RouterURL, topologyUpdate{Add: add, Remove: remove})
}

func firstPositive(vals ...int) int {
	for _, v := range vals {
		if v > 0 {
			return v
		}
	}
	return 0
}

// StopWorker kills worker i's listener immediately — a simulated crash,
// not a drain: in-flight requests are cut, no readiness flip, no
// goodbye. The router discovers the death through connection errors and
// fails the worker's ranges over to the next replica.
func (c *InProcess) StopWorker(i int) error {
	if i < 0 || i >= len(c.Workers) {
		return fmt.Errorf("cluster: no worker %d", i)
	}
	return c.servers[i].Close()
}

// Close shuts the listeners down and closes every service. It first
// drops http.DefaultTransport's idle connections: the default router and
// peer clients, the fault transports and a test's http.Get all use it,
// its dialer can leave a connection it never sends a request on, and
// Shutdown counts such a connection idle only once it is 5 s old.
func (c *InProcess) Close() {
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range c.servers {
		srv.Shutdown(ctx)
	}
	if c.routerSrv != nil {
		c.routerSrv.Shutdown(ctx)
	}
	for _, w := range c.Workers {
		w.Service.Close()
	}
}
