package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/core"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

// The system under test, composed in-process from the public
// constructors cmd/freqd, cmd/freqrouter and cmd/freqmerge call, in the
// same order, and served on loopback listeners. DESIGN.md names the
// daemon command lines each workload's composition is equivalent to.

// node is one freqd.
type node struct {
	addr  string
	reg   *obs.Registry
	pipe  *core.Pipelined  // -pipeline
	conc  *core.Concurrent // single shard
	table *tenant.Table    // -tenants
	store *persist.Store   // -data-dir
	// recoverNs is the time Recover took at set-up.
	recoverNs float64
	recovery  persist.RecoveryStats
}

// snapshotStats reports the node's serving snapshot counters (zero for
// a tenant table, which serves without snapshots).
func (n *node) snapshotStats() core.SnapshotStats {
	switch {
	case n.pipe != nil:
		return n.pipe.SnapshotStats()
	case n.conc != nil:
		return n.conc.SnapshotStats()
	}
	return core.SnapshotStats{}
}

// system is one composition and everything it started.
type system struct {
	nodes  []*node
	router *router.Router
	coord  *cluster.Coordinator

	ingest *target // where producers send
	query  *target // where queries go
	nodeT  []*target

	servers []*http.Server
	clients []*http.Client // the router's and coordinator's
	cancel  context.CancelFunc
	loops   sync.WaitGroup // servers, the router's probe loop, the coordinator's pull loop
}

// wrapFunc decorates a daemon handler (tracing, or a test's fault).
type wrapFunc func(role, addr string, level int, h http.Handler) http.Handler

// serveOn starts an HTTP server for h on a fresh loopback port and
// returns its address.
func (sys *system) serveOn(h func(addr string) http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	srv := &http.Server{Handler: h(addr)}
	sys.servers = append(sys.servers, srv)
	sys.loops.Add(1)
	go func() {
		defer sys.loops.Done()
		_ = srv.Serve(ln) // ErrServerClosed once close stops it
	}()
	return addr, nil
}

// nodeConfig is one freqd's flags.
type nodeConfig struct {
	algo        string
	phi         float64
	shards      int
	pipeline    bool
	dataDir     string // -data-dir (fsync interval)
	tenants     bool
	maxResident int
}

// startNode builds a freqd the way cmd/freqd's buildTarget does:
// construct, recover, wire the WAL, enable snapshot serving, serve.
func (sys *system) startNode(cfg nodeConfig, role string, level int, wrap wrapFunc, rec *recorder) (*node, error) {
	n := &node{}
	o := obs.Discard("freqd")
	n.reg = o.Reg
	var durable persist.Target
	switch {
	case cfg.tenants:
		t, err := tenant.NewTable(tenant.Options{DefaultPhi: cfg.phi, MaxResident: cfg.maxResident})
		if err != nil {
			return nil, err
		}
		n.table, durable = t, t
	case cfg.pipeline:
		n.pipe = core.NewPipelined(cfg.shards, func() core.Summary {
			return streamfreq.MustNew(cfg.algo, cfg.phi, 1)
		})
		durable = n.pipe
	default:
		n.conc = core.NewConcurrent(streamfreq.MustNew(cfg.algo, cfg.phi, 1))
		durable = n.conc
	}
	if cfg.dataDir != "" {
		st, err := persist.Open(persist.Options{
			Dir: cfg.dataDir, Algo: cfg.algo, Fsync: persist.FsyncInterval,
			FsyncInterval: 100 * time.Millisecond, Decode: streamfreq.Decode,
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		n.recovery, err = st.Recover(durable)
		n.recoverNs = since(t0)
		if err != nil {
			return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
		}
		var p core.Persister = st
		if rec != nil {
			p = tracedPersister{Persister: st, rec: rec}
		}
		durable.PersistTo(p)
		n.store = st
	}
	staleness := 100 * time.Millisecond
	var target serve.Target
	switch {
	case n.table != nil:
		target = n.table
	case n.pipe != nil:
		target = n.pipe.ServeSnapshots(staleness)
	default:
		target = n.conc.ServeSnapshots(staleness)
	}
	srv := serve.NewServer(serve.Options{Target: target, Algo: cfg.algo, Store: n.store, Tenants: n.table, Obs: o})
	addr, err := sys.serveOn(func(addr string) http.Handler {
		h := srv.Handler()
		if wrap != nil {
			h = wrap(role, addr, level, h)
		}
		return h
	})
	if err != nil {
		return nil, err
	}
	n.addr = addr
	sys.nodes = append(sys.nodes, n)
	sys.nodeT = append(sys.nodeT, newTarget("http://"+addr))
	return n, nil
}

// buildSingle composes one freqd and points both traffic classes at it.
func buildSingle(cfg nodeConfig, wrap wrapFunc, rec *recorder) (*system, error) {
	sys := &system{}
	n, err := sys.startNode(cfg, "serve", lvHandler, wrap, rec)
	if err != nil {
		sys.close()
		return nil, err
	}
	// Writers and readers are different clients, each with its own
	// connection bound, so a query never waits for a connection behind
	// a post (nor a post behind a query).
	sys.ingest = newTarget("http://" + n.addr)
	sys.query = newTarget("http://" + n.addr)
	return sys, nil
}

// buildCluster composes `freqrouter` over shards × replicas of freqd
// plus `freqmerge -router R -interval pull`, the partitioned view.
func buildCluster(cfg nodeConfig, shards, replicas int, pull time.Duration, wrap wrapFunc, rec *recorder) (*system, error) {
	sys := &system{}
	fail := func(err error) (*system, error) {
		sys.close()
		return nil, err
	}
	var scs []router.ShardConfig
	for s := 0; s < shards; s++ {
		sc := router.ShardConfig{ID: string(rune('a' + s))}
		for r := 0; r < replicas; r++ {
			n, err := sys.startNode(cfg, "serve", lvHopHandler, wrap, rec)
			if err != nil {
				return fail(err)
			}
			sc.Replicas = append(sc.Replicas, "http://"+n.addr)
		}
		scs = append(scs, sc)
	}
	ro := obs.Discard("freqrouter")
	client := router.NewHTTPClient(5 * time.Second)
	sys.clients = append(sys.clients, client)
	if rec != nil {
		client = rec.tracedClient("router.forward", client)
	}
	rt, err := router.New(router.Options{Shards: scs, Client: client, Obs: ro})
	if err != nil {
		return fail(err)
	}
	sys.router = rt
	rtAddr, err := sys.serveOn(func(addr string) http.Handler {
		h := rt.Handler()
		if wrap != nil {
			h = wrap("router", addr, lvHandler, h)
		}
		return h
	})
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sys.cancel = cancel
	sys.loops.Add(1)
	go func() {
		defer sys.loops.Done()
		rt.Run(ctx, time.Second)
	}()

	m, err := router.FetchShardMap(ctx, nil, "http://"+rtAddr)
	if err != nil {
		return fail(err)
	}
	co := obs.Discard("freqmerge")
	cclient := router.NewHTTPClient(5 * time.Second)
	sys.clients = append(sys.clients, cclient)
	if rec != nil {
		cclient = rec.tracedClient("cluster.pull", cclient)
	}
	coord, err := cluster.New(cluster.Options{
		Interval: pull, ShardMap: m, MergeEncoded: streamfreq.MergeEncoded, Client: cclient, Obs: co,
	})
	if err != nil {
		return fail(err)
	}
	sys.coord = coord
	coAddr, err := sys.serveOn(func(addr string) http.Handler {
		h := coord.Handler()
		if wrap != nil {
			h = wrap("cluster", addr, lvHandler, h)
		}
		return h
	})
	if err != nil {
		return fail(err)
	}
	sys.loops.Add(1)
	go func() {
		defer sys.loops.Done()
		coord.Run(ctx)
	}()
	sys.ingest = newTarget("http://" + rtAddr)
	sys.query = newTarget("http://" + coAddr)
	return sys, nil
}

// firstAccepted blocks until the system accepts its first request.
func (sys *system) firstAccepted() error {
	resp, err := sys.query.client.Get(sys.query.base + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close stops every server and loop, and waits for the loops to exit.
// Durable nodes shut down like freqd without the final checkpoint: the
// run directory is discarded anyway.
func (sys *system) close() {
	if sys.cancel != nil {
		sys.cancel()
	}
	for _, s := range sys.servers {
		_ = s.Close()
	}
	sys.loops.Wait()
	for _, t := range []*target{sys.ingest, sys.query} {
		if t != nil {
			t.close()
		}
	}
	for _, t := range sys.nodeT {
		t.close()
	}
	for _, c := range sys.clients {
		c.CloseIdleConnections()
	}
	for _, n := range sys.nodes {
		if n.store != nil {
			_ = n.store.Close()
		}
		if n.pipe != nil {
			n.pipe.Close()
		}
	}
}
