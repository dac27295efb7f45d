package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/persist"
)

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	workDir  string   // scratch space inside the checkout
	fault    wrapFunc // test hook: decorates every daemon handler
}

// phase is one composition driven for a while: set up (possibly
// several times), load, visibility drain, correctness gate.
type phase struct {
	o   *options
	in  *inputs
	rec *recorder // nil for untraced phases

	sys     *system
	base    int64 // served n before any load (recovered or preloaded items)
	setupNs []float64

	c         clock
	from, end int64 // the load's start and the visibility drain's end
	wall      time.Duration
	samples   []sample
	polls     []sample
	acked     int64
	visibleAt int64
	visible   bool

	gate       gate
	truth      *truth
	precision  float64
	stateBytes float64

	before, after layerSnap
	ringMax       int64
	lagMax        int64
}

// dataTemplate seeds the ingest_durable data directory the way a
// running freqd leaves it: a checkpoint, then a WAL tail written after
// it and never checkpointed, so set-up has both to recover.
func dataTemplate(dir string, in *inputs) error {
	p := core.NewPipelined(2, func() core.Summary { return streamfreq.MustNew("SSH", phiPaper, 1) })
	defer p.Close()
	st, err := persist.Open(persist.Options{Dir: dir, Algo: "SSH", Fsync: persist.FsyncNever, Decode: streamfreq.Decode})
	if err != nil {
		return err
	}
	if _, err := st.Recover(p); err != nil {
		return err
	}
	p.PersistTo(st)
	core.UpdateBatches(p, in.prefix[:in.ckptItems], core.DefaultBatchSize)
	if _, err := st.Checkpoint(p); err != nil {
		return err
	}
	core.UpdateBatches(p, in.prefix[in.ckptItems:], core.DefaultBatchSize)
	p.Drain()
	return st.Close()
}

// copyDir copies the flat template directory src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// build composes the workload's system. Set-up state (the preloaded
// prefix, the namespaces) is part of building it.
func (ph *phase) build(dataDir string) (*system, error) {
	o, in := ph.o, ph.in
	var wrap wrapFunc
	switch {
	case ph.rec != nil:
		wrap = func(role, addr string, level int, h http.Handler) http.Handler {
			if o.fault != nil {
				h = o.fault(role, addr, level, h)
			}
			return ph.rec.traceHandler(role, addr, level, h)
		}
	case o.fault != nil:
		wrap = o.fault
	}
	switch o.workload {
	case "ingest_durable":
		return buildSingle(nodeConfig{algo: "SSH", phi: phiPaper, shards: 2, pipeline: true, dataDir: dataDir}, wrap, ph.rec)
	case "query_mix":
		sys, err := buildSingle(nodeConfig{algo: "CMH", phi: phiPaper, shards: 1}, wrap, ph.rec)
		if err != nil {
			return nil, err
		}
		core.UpdateBatches(sys.nodes[0].conc, in.prefix, core.DefaultBatchSize)
		return sys, nil
	case "cluster_routed":
		return buildCluster(nodeConfig{algo: "SSH", phi: phiPaper, shards: 1}, 2, 2, o.sc.pull, wrap, ph.rec)
	case "tenant_churn":
		sys, err := buildSingle(nodeConfig{algo: "SSH", phi: 0.01, tenants: true, maxResident: o.sc.resident}, wrap, ph.rec)
		if err != nil {
			return nil, err
		}
		for ns, name := range in.tenantName {
			if _, _, err := sys.nodes[0].table.IngestBatch(name, tenantSeed(ns)); err != nil {
				sys.close()
				return nil, err
			}
		}
		return sys, nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// setUp builds the system `times` times, timing each from the first
// constructor call to the first accepted request, and keeps the last.
func (ph *phase) setUp(times int) error {
	var tmpl, dataDir string
	if ph.o.workload == "ingest_durable" {
		tmpl = filepath.Join(ph.o.workDir, "template")
		dataDir = filepath.Join(ph.o.workDir, "data")
		if _, err := os.Stat(tmpl); err != nil {
			if err := dataTemplate(tmpl, ph.in); err != nil {
				return fmt.Errorf("seeding the data directory: %w", err)
			}
		}
	}
	for i := 0; i < times; i++ {
		if tmpl != "" {
			if err := copyDir(tmpl, dataDir); err != nil {
				return err
			}
		}
		t0 := time.Now()
		sys, err := ph.build(dataDir)
		if err != nil {
			return err
		}
		if err := sys.firstAccepted(); err != nil {
			sys.close()
			return err
		}
		ph.setupNs = append(ph.setupNs, since(t0))
		if i < times-1 {
			sys.close()
			continue
		}
		ph.sys = sys
	}
	ph.base = int64(len(ph.in.prefix))
	if ph.in.tenantName != nil {
		ph.base = int64(len(ph.in.tenantName) * len(tenantSeed(0)))
	}
	return nil
}

// sources returns the workload's traffic sources.
func (ph *phase) sources() []*source {
	sc, in, sys := ph.o.sc, ph.in, ph.sys
	workers := runtime.NumCPU()
	switch ph.o.workload {
	case "ingest_durable", "cluster_routed":
		return []*source{
			{target: sys.ingest, reqs: in.bodies, closed: true, workers: 2},
			{target: sys.query, reqs: []request{in.probe}, rate: sc.probeRate, workers: workers},
		}
	case "query_mix":
		return []*source{
			{target: sys.query, reqs: in.queries, rate: sc.queryRate, workers: workers},
			{target: sys.ingest, reqs: in.bodies, rate: sc.trickleRate, workers: workers},
		}
	case "tenant_churn":
		return []*source{
			{target: sys.ingest, reqs: in.bodies, rate: sc.tenantRate, workers: workers},
			{target: sys.query, reqs: in.queries, rate: sc.tenantQRate, workers: workers},
			{target: sys.query, reqs: []request{in.probe}, rate: sc.probeRate, workers: workers},
		}
	}
	return nil
}

// drive runs the load for `seconds`, then waits until the served
// position shows every acked item.
func (ph *phase) drive(seconds float64) {
	acks := &ackLog{}
	acks.total.Store(ph.base)
	traces := &traceSeq{}
	if ph.rec != nil {
		ph.before = snapLayers(ph.sys)
	}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if ph.rec != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			ph.sample(stop)
		}()
	}
	ph.from = ph.c.now()
	until := ph.from + int64(seconds*1e9)
	ph.samples = runSources(ph.c, ph.from, until, ph.sources(), acks, traces)
	ph.acked = acks.total.Load() - ph.base
	ph.polls, ph.visible = awaitVisible(ph.c, ph.sys.query, &ph.in.probe, acks.total.Load(), 30*time.Second, traces)
	if ph.visible {
		ph.visibleAt = ph.polls[len(ph.polls)-1].done
	}
	ph.end = ph.c.now()
	ph.wall = time.Duration(ph.end - ph.from)
	close(stop)
	sampler.Wait()
	if ph.rec != nil {
		ph.after = snapLayers(ph.sys)
	}
}

// sample polls the staging rings and the WAL lag until stop closes.
func (ph *phase) sample(stop <-chan struct{}) {
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, n := range ph.sys.nodes {
			if n.pipe != nil {
				if occ := n.pipe.PipelineStats().RingOccupancy; occ > ph.ringMax {
					ph.ringMax = occ
				}
			}
			if n.store != nil {
				if lag := n.store.Lag(); lag > ph.lagMax {
					ph.lagMax = lag
				}
			}
		}
	}
}

// check runs the correctness gate against the final, forced-fresh
// state, and measures precision and state size there.
func (ph *phase) check() {
	g := &ph.gate
	in, sys := ph.in, ph.sys
	g.check(ph.visible, "visibility", "served n never reached the acked total %d within 30s", ph.base+ph.acked)
	tr := buildTruth(in, ph.samples)
	ph.truth = tr
	want := tr.all.N()
	g.check(want == ph.base+ph.acked, "acked_total", "exact truth holds %d items, generator acked %d", want, ph.base+ph.acked)

	tenanted := in.tenantName != nil
	n, err := refreshN(sys.query, in.probe.path, !tenanted)
	if err != nil {
		g.check(false, "refresh", "%v", err)
	} else {
		g.check(n == want, "served_n", "served n %d after a forced refresh, acked %d", n, want)
	}
	if ph.o.workload == "cluster_routed" {
		ph.checkReplicas(want)
	}
	seed := ph.o.seed
	switch {
	case tenanted:
		ph.checkTenants()
	default:
		good, reported := g.checkTopK(sys.query, "/v1/topk?phi=0.001", phiPaper, tr.all, "stream")
		if reported > 0 {
			ph.precision = float64(good) / float64(reported)
		}
		k := kForPhi(phiPaper)
		if ph.o.workload == "query_mix" {
			k = 0 // Count-Min: one-sided
		}
		g.checkEstimates(sys.query, "/v1", checkItems(tr.all, in.bodyItems, seed), tr.all, k, "stream")
		if ph.o.workload == "query_mix" {
			g.checkRanges(sys.query, tr, seed)
		}
	}
	for i, t := range sys.nodeT {
		var st struct {
			Bytes float64 `json:"bytes"`
		}
		if err := getJSON(t, "GET", "/v1/stats", &st); err != nil {
			g.check(false, "stats", "node %d: %v", i, err)
			continue
		}
		ph.stateBytes += st.Bytes
	}
}

// checkReplicas checks every replica of a shard holds the same n and
// the shards together hold exactly the acked stream.
func (ph *phase) checkReplicas(want int64) {
	var total int64
	for s := 0; s < 2; s++ {
		var ns [2]int64
		for r := 0; r < 2; r++ {
			var st struct {
				N int64 `json:"n"`
			}
			if err := getJSON(ph.sys.nodeT[2*s+r], "GET", "/v1/stats", &st); err != nil {
				ph.gate.check(false, "replica_n", "%v", err)
				return
			}
			ns[r] = st.N
		}
		ph.gate.check(ns[0] == ns[1], "replica_n", "shard %d replicas hold %d and %d items", s, ns[0], ns[1])
		total += ns[0]
	}
	ph.gate.check(total == want, "shard_n", "shards hold %d items, acked %d", total, want)
}

// checkTenants checks every namespace's n, and recall, precision and
// estimate bounds on the hottest namespaces.
func (ph *phase) checkTenants() {
	g, in, tr, t := &ph.gate, ph.in, ph.truth, ph.sys.query
	var list struct {
		Namespaces []struct {
			NS string `json:"ns"`
			N  int64  `json:"n"`
		} `json:"namespaces"`
	}
	if err := getJSON(t, "GET", "/v1/tenants", &list); err != nil {
		g.check(false, "tenants", "%v", err)
		return
	}
	byName := make(map[string]int64, len(list.Namespaces))
	for _, ns := range list.Namespaces {
		byName[ns.NS] = ns.N
	}
	bad := 0
	for i, name := range in.tenantName {
		if byName[name] != tr.tenants[i].N() {
			bad++
		}
	}
	g.check(bad == 0 && len(byName) == len(in.tenantName), "tenant_n",
		"%d of %d namespaces serve a wrong n (%d listed)", bad, len(in.tenantName), len(byName))
	hot := make([]int, len(in.tenantName))
	for i := range hot {
		hot[i] = i
	}
	sort.Slice(hot, func(a, b int) bool { return tr.tenants[hot[a]].N() > tr.tenants[hot[b]].N() })
	var good, reported int
	for _, i := range hot[:min(16, len(hot))] {
		prefix := "/v1/t/" + in.tenantName[i]
		gd, rp := g.checkTopK(t, prefix+"/topk?phi=0.01", 0.01, tr.tenants[i], "tenant")
		good += gd
		reported += rp
		var pool [][]core.Item
		for b, ti := range in.tenantOf {
			if ti == i {
				pool = append(pool, in.bodyItems[b])
			}
		}
		g.checkEstimates(t, prefix, checkItems(tr.tenants[i], pool, ph.o.seed)[:20], tr.tenants[i], kForPhi(0.01), "tenant")
	}
	if reported > 0 {
		ph.precision = float64(good) / float64(reported)
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2e computes the end-to-end metrics of a driven phase.
func (ph *phase) e2e() map[string]float64 {
	m := make(map[string]float64)
	m["setup_s"] = median(ph.setupNs) / 1e9
	var first int64 = math.MaxInt64
	for i := range ph.samples {
		if s := &ph.samples[i]; s.kind == opIngest && s.sent < first {
			first = s.sent
		}
	}
	if ph.visible && first < ph.visibleAt {
		m["ingest_items_per_s"] = float64(ph.acked) / (float64(ph.visibleAt-first) / 1e9)
	}
	ing := latencies(ph.samples, func(s *sample) bool { return s.kind == opIngest })
	qry := latencies(ph.samples, func(s *sample) bool { return s.kind != opIngest })
	fr := freshness(append(append([]sample(nil), ph.samples...), ph.polls...))
	// A percentile that lands on a failure (+Inf) reads as the whole run.
	limit := float64(ph.wall.Nanoseconds())
	ms := func(v float64) float64 { return math.Min(v, limit) / 1e6 }
	// The tail reported end to end is the p90: on a shared two-core host
	// the p99 of millisecond requests is set by the host's scheduling
	// hiccups and varies several-fold between runs, the p90 does not.
	// Traced runs report the p99s as loadgen metrics.
	m["ingest_ack_p50_ms"] = ms(percentile(ing, 0.50))
	m["ingest_ack_p90_ms"] = ms(percentile(ing, 0.90))
	m["query_p50_ms"] = ms(percentile(qry, 0.50))
	m["query_p90_ms"] = ms(percentile(qry, 0.90))
	m["ingest_ack_p99_ms"] = ms(percentile(ing, 0.99))
	m["query_p99_ms"] = ms(percentile(qry, 0.99))
	m["freshness_p50_ms"] = ms(percentile(fr, 0.50))
	m["freshness_p99_ms"] = ms(percentile(fr, 0.99))
	m["precision"] = ph.precision
	attempted, failed := ph.counts()
	m["success_rate"] = 1 - float64(failed)/float64(max(attempted, 1))
	m["state_bytes"] = ph.stateBytes
	return m
}

// counts returns attempted and failed operations.
func (ph *phase) counts() (attempted, failed int64) {
	for i := range ph.samples {
		attempted++
		if !ph.samples[i].ok {
			failed++
		}
	}
	return attempted, failed
}
