package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"regcoal/internal/cluster"
	"regcoal/internal/service"
)

// replicas is R, the number of workers that own each hash range.
const (
	numWorkers = 3
	replicas   = 2
)

// serviceConfig is every node's configuration: the defaults, but a result
// cache of 1024 entries instead of 4096. cold-cluster fills it within the
// first ~1 500 requests of every run (each worker holds the answers of
// the two thirds of the keys it owns), so the servers' heap at the end no
// longer follows how many requests a run served; at 4096, runs ended
// before filling it and the heap spread by 30% with the host's speed.
var serviceConfig = service.Config{CacheCapacity: 1024}

// topology is the system under test, assembled from the public
// constructors on loopback listeners. Nodes are addressed by fixed names
// (http://w0..w2, http://router, http://single) that the harness's
// dialer resolves to the listeners, so ring placement depends only on the
// names and repeats exactly from run to run.
type topology struct {
	addrs      map[string]string // node name → loopback address; read-only once built
	entry      string            // base URL the clients send to
	nodes      []string          // base URLs whose /stats the harness reads
	servers    []*http.Server
	services   []*service.Server
	transports []*http.Transport
	serving    sync.WaitGroup
}

// dial resolves a node name to its loopback listener.
func (t *topology) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	a, ok := t.addrs[host]
	if !ok {
		return nil, fmt.Errorf("servebench: no node named %q", host)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, a)
}

// transport is a plain name-resolving transport holding at most maxConns
// connections per node.
func (t *topology) transport(maxConns int) *http.Transport {
	tr := &http.Transport{
		DialContext:         t.dial,
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	t.transports = append(t.transports, tr)
	return tr
}

// roundTripper is the transport a component gets: plain, or recording
// spans when the run is traced.
func (t *topology) roundTripper(rec *recorder, node int, maxConns int) http.RoundTripper {
	tr := t.transport(maxConns)
	if rec == nil {
		return tr
	}
	return &spanTransport{rec: rec, node: int8(node), next: tr}
}

// startTopology starts one service (hot-single) or a router over three
// R=2 workers. rec, when non-nil, wraps every handler and transport.
func startTopology(w workloadInfo, rec *recorder) (*topology, error) {
	t := &topology{addrs: make(map[string]string)}
	names := []string{"single"}
	if w.cluster {
		names = []string{"router"}
		for i := 0; i < numWorkers; i++ {
			names = append(names, fmt.Sprintf("w%d", i))
		}
	}
	listeners := make(map[string]net.Listener, len(names))
	for _, n := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		listeners[n] = ln
		t.addrs[n] = ln.Addr().String()
	}
	serve := func(name string, h http.Handler) {
		ln := listeners[name]
		delete(listeners, name)
		srv := &http.Server{Handler: h}
		t.servers = append(t.servers, srv)
		t.serving.Add(1)
		go func() {
			defer t.serving.Done()
			srv.Serve(ln)
		}()
	}
	fail := func(err error) (*topology, error) {
		for _, l := range listeners {
			l.Close()
		}
		t.close()
		return nil, err
	}

	if !w.cluster {
		svc, err := service.New(serviceConfig)
		if err != nil {
			return fail(err)
		}
		t.services = append(t.services, svc)
		t.entry = "http://single"
		t.nodes = []string{t.entry}
		serve("single", rec.handler(spanWorkerHandle, 0, svc.Handler()))
		return t, nil
	}

	urls := make([]string, numWorkers)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://w%d", i)
	}
	for i, self := range urls {
		svc, err := service.New(serviceConfig)
		if err != nil {
			return fail(err)
		}
		t.services = append(t.services, svc)
		wk, err := cluster.NewWorker(svc, cluster.WorkerConfig{
			Self:     self,
			Peers:    urls,
			Replicas: replicas,
			Client:   &http.Client{Timeout: 2 * time.Second, Transport: t.roundTripper(rec, i, 4)},
		})
		if err != nil {
			return fail(err)
		}
		serve(fmt.Sprintf("w%d", i), rec.handler(spanWorkerHandle, i, wk))
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Workers:  urls,
		Replicas: replicas,
		Client:   &http.Client{Timeout: time.Minute, Transport: t.roundTripper(rec, -1, 4)},
	})
	if err != nil {
		return fail(err)
	}
	serve("router", rec.handler(spanRouterHandle, -1, rt))
	t.entry = "http://router"
	t.nodes = urls
	return t, nil
}

// close drops the idle connections, stops the servers, waits for their
// serve loops, and closes the services. Idle connections go first: a
// server's Shutdown waits up to 5s on a connection that never sent a
// request, which a transport's spare dial can leave behind.
func (t *topology) close() {
	for _, tr := range t.transports {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(t.servers) - 1; i >= 0; i-- {
		t.servers[i].Shutdown(ctx)
	}
	t.serving.Wait()
	for _, s := range t.services {
		s.Close()
	}
}
