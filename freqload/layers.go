package main

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamfreq"
	"streamfreq/internal/cluster"
	"streamfreq/internal/core"
	"streamfreq/internal/counters"
	"streamfreq/internal/obs"
	"streamfreq/internal/persist"
	"streamfreq/internal/router"
	"streamfreq/internal/sketches"
	"streamfreq/internal/stream"
	"streamfreq/internal/tenant"
)

// Per-layer metrics of a traced phase. Sources, in order of preference:
// spans at the seams, the layers' public stats methods, before/after
// deltas of the daemons' /v1/metrics histograms, and direct timed calls
// to public functions on the run's own inputs. A layer the workload's
// composition does not include is measured by direct calls on the same
// inputs (a scratch WAL, an in-process router and coordinator over the
// run's node), so every layer reports on every workload.

// bucket is one cumulative histogram bucket.
type bucket struct{ le, cum float64 }

// layerSnap is the counters read before and after the load.
type layerSnap struct {
	applySum   float64 // freq_ingest_apply_seconds sum over nodes
	batchItems float64 // freq_ingest_batch_items sum over nodes
	fsync      []bucket
	refreshes  int64
	fsyncs     int64
	inline     int64
	tstats     tenant.Stats
	retries    int64
	pulls      int64
	pullFails  int64
	cpu        time.Duration
	gc         uint32
	alloc      uint64
}

// scrapeFamilies parses a registry's exposition, as GET /v1/metrics
// serves it.
func scrapeFamilies(reg *obs.Registry) map[string]*obs.ParsedFamily {
	fams, err := obs.ParseExposition(strings.NewReader(reg.Render()))
	if err != nil {
		return nil
	}
	return fams
}

func familySum(fams map[string]*obs.ParsedFamily, name, suffix string) float64 {
	f := fams[name]
	if f == nil {
		return 0
	}
	var v float64
	for _, s := range f.Series {
		if s.Name == name+suffix {
			v += s.Value
		}
	}
	return v
}

// addBuckets adds a histogram family's cumulative buckets into acc.
func addBuckets(acc []bucket, fams map[string]*obs.ParsedFamily, name string) []bucket {
	f := fams[name]
	if f == nil {
		return acc
	}
	var bs []bucket
	for _, s := range f.Series {
		if s.Name != name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if s.Labels["le"] == "+Inf" {
			le, err = math.Inf(1), nil
		}
		if err == nil {
			bs = append(bs, bucket{le, s.Value})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if acc == nil {
		return bs
	}
	for i := range acc {
		if i < len(bs) {
			acc[i].cum += bs[i].cum
		}
	}
	return acc
}

// histQuantile interpolates the q-quantile inside the bucket holding it
// (the usual histogram_quantile), from the difference of two cumulative
// bucket sets.
func histQuantile(before, after []bucket, q float64) float64 {
	if len(after) == 0 {
		return 0
	}
	d := make([]bucket, len(after))
	for i := range after {
		d[i] = after[i]
		if i < len(before) {
			d[i].cum -= before[i].cum
		}
	}
	total := d[len(d)-1].cum
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range d {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.cum == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.cum-prev)
		}
		lo, prev = b.le, b.cum
	}
	return lo
}

// snapLayers reads every layer's counters.
func snapLayers(sys *system) layerSnap {
	var s layerSnap
	for _, n := range sys.nodes {
		fams := scrapeFamilies(n.reg)
		s.applySum += familySum(fams, "freq_ingest_apply_seconds", "_sum")
		s.batchItems += familySum(fams, "freq_ingest_batch_items", "_sum")
		s.fsync = addBuckets(s.fsync, fams, "freq_wal_fsync_seconds")
		s.refreshes += n.snapshotStats().Refreshes
		if n.store != nil {
			st := n.store.Stats()
			s.fsyncs += st.Fsyncs
			s.inline += st.InlineDrains
		}
		if n.table != nil {
			s.tstats = n.table.TableStats()
		}
	}
	if sys.router != nil {
		s.retries = sys.router.Counters().Get("router.retries")
	}
	if sys.coord != nil {
		for _, ns := range sys.coord.Stats().Nodes {
			s.pulls += ns.Pulls
			s.pullFails += ns.Failures
		}
	}
	s.cpu = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gc, s.alloc = ms.NumGC, ms.TotalAlloc
	return s
}

func pct(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return percentile(v, p)
}

// timeCalls runs f reps times and returns the median duration in ns.
func timeCalls(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = since(t0)
	}
	return median(ds)
}

// replayItems returns up to limit of the run's ingested items, in pool
// order: the input of the bare-summary baselines.
func replayItems(in *inputs, limit int) []core.Item {
	var out []core.Item
	for len(out) < limit {
		for _, b := range in.bodyItems {
			out = append(out, b...)
			if len(out) >= limit {
				return out[:limit]
			}
		}
		if len(in.bodyItems) == 0 {
			return out
		}
	}
	return out
}

// layers computes the per-layer metrics of traced phase ph; plain is the
// untraced phase of the same invocation (for the overhead and the
// end-to-end-over-bare ratio).
func (ph *phase) layers(plain map[string]float64, traced map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	in, sys, sc := ph.in, ph.sys, ph.o.sc
	wallNs := float64(ph.wall.Nanoseconds())

	// loadgen
	var late []float64
	var ingests, queries float64
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.kind == opIngest {
			ingests++
		} else {
			queries++
		}
		if s.open {
			late = append(late, float64(max(s.sent-s.due, 0)))
		}
	}
	m["loadgen.late_p99_ms"] = pct(late, 0.99) / 1e6
	m["loadgen.ingest_requests"] = ingests
	m["loadgen.queries"] = queries
	// The client-side p99s, from the untraced half.
	m["loadgen.ingest_ack_p99_ms"] = plain["ingest_ack_p99_ms"]
	m["loadgen.query_p99_ms"] = plain["query_p99_ms"]

	// Spans: the generator's own requests are the roots.
	ph.rec.addClientSpans(ph.samples)
	spans := ph.rec.link()
	kids := childrenOf(spans)
	inLoad := func(s *span) bool { return s.Start >= ph.from && s.End <= ph.end }
	var ingH, qryH, topH, gaps []float64
	var busy float64
	var fwd []float64
	var routerSelf float64
	var pulls []float64
	var pullBytes float64
	var appendNs, appended float64
	for i := range spans {
		s := &spans[i]
		if !inLoad(s) {
			continue
		}
		d := float64(s.dur())
		switch {
		case s.Level == lvHandler || s.Level == lvHopHandler:
			busy += float64(selfTime(spans, kids, i))
			route := s.Name[strings.IndexByte(s.Name, '.')+1:]
			daemon := s.Name[:strings.IndexByte(s.Name, '.')]
			if daemon == "serve" && route == "ingest" {
				ingH = append(ingH, d)
			}
			if s.Level == lvHandler && route != "ingest" && route != "healthz" {
				qryH = append(qryH, d)
				if route == "topk" {
					topH = append(topH, d)
				}
			}
			if daemon == "router" && route == "ingest" {
				routerSelf += float64(selfTime(spans, kids, i))
			}
			if s.Level == lvHandler && s.Parent >= 0 {
				c := &spans[s.Parent]
				if c.Name != "loadgen.ingest" {
					gaps = append(gaps, float64(c.dur())-d)
				}
			}
		case s.Name == "router.forward":
			fwd = append(fwd, d)
		case s.Name == "cluster.pull":
			pulls = append(pulls, d)
			pullBytes += float64(s.Bytes)
		case s.Name == "persist.append":
			appendNs += d
			appended += float64(s.Items)
		}
	}
	m["serve.ingest.handler_p50_us"] = pct(ingH, 0.5) / 1e3
	m["serve.ingest.handler_p99_us"] = pct(ingH, 0.99) / 1e3
	m["serve.query.handler_p50_us"] = pct(qryH, 0.5) / 1e3
	m["serve.query.handler_p99_us"] = pct(qryH, 0.99) / 1e3
	m["serve.topk.handler_p50_us"] = pct(topH, 0.5) / 1e3
	m["serve.topk.handler_p99_us"] = pct(topH, 0.99) / 1e3
	m["serve.client_gap_p50_us"] = pct(gaps, 0.5) / 1e3
	m["serve.busy_share"] = busy / (wallNs * float64(runtime.NumCPU()))
	if sys.router != nil && ph.acked > 0 {
		// The router's handlers routed every acked item.
		m["router.self_ns_per_item"] = routerSelf / float64(ph.acked)
	}
	m["router.forwards"] = float64(len(fwd))
	m["router.forward_p50_us"] = pct(fwd, 0.5) / 1e3
	m["router.forward_p99_us"] = pct(fwd, 0.99) / 1e3
	m["cluster.pulls"] = float64(ph.after.pulls - ph.before.pulls)
	m["cluster.pull_failures"] = float64(ph.after.pullFails - ph.before.pullFails)
	m["cluster.pull_p50_ms"] = pct(pulls, 0.5) / 1e6
	m["cluster.pull_p99_ms"] = pct(pulls, 0.99) / 1e6
	m["cluster.pull_bytes"] = pullBytes
	m["router.retries"] = float64(ph.after.retries - ph.before.retries)

	// core
	items := ph.after.batchItems - ph.before.batchItems
	if items > 0 {
		m["core.stage_ns_per_item"] = (ph.after.applySum - ph.before.applySum) * 1e9 / items
	}
	m["core.ring_occupancy_max"] = float64(ph.ringMax)
	m["core.refreshes"] = float64(ph.after.refreshes - ph.before.refreshes)

	// persist: the run's own WAL when the node is durable.
	if n := sys.nodes[0]; n.store != nil {
		if appended > 0 {
			m["persist.append_ns_per_item"] = appendNs / appended
		}
		m["persist.fsyncs"] = float64(ph.after.fsyncs - ph.before.fsyncs)
		m["persist.fsync_p99_ms"] = histQuantile(ph.before.fsync, ph.after.fsync, 0.99) * 1e3
		m["persist.inline_drains"] = float64(ph.after.inline - ph.before.inline)
		m["persist.lag_max_items"] = float64(ph.lagMax)
		m["persist.recover_s"] = n.recoverNs / 1e9
		m["persist.replayed_records"] = float64(n.recovery.ReplayedRecords)
	}

	// tenant
	if sys.nodes[0].table != nil {
		b, a := ph.before.tstats, ph.after.tstats
		m["tenant.evictions"] = float64(a.Evictions - b.Evictions)
		m["tenant.reloads"] = float64(a.Reloads - b.Reloads)
		var treq float64
		for i := range ph.samples {
			if ph.samples[i].tenant >= 0 {
				treq++
			}
		}
		if treq > 0 {
			m["tenant.resident_hit_ratio"] = 1 - float64(a.Reloads-b.Reloads)/treq
		}
		m["tenant.resident_bytes"] = float64(a.Slab.ChunkBytes)
	} else {
		m["tenant.evictions"], m["tenant.reloads"], m["tenant.resident_hit_ratio"], m["tenant.resident_bytes"] = 0, 0, 0, 0
	}

	// runtime: the whole process, generator included.
	cpu := float64((ph.after.cpu - ph.before.cpu).Nanoseconds())
	m["runtime.cpu_util"] = cpu / (wallNs * float64(runtime.NumCPU()))
	m["runtime.gc_cycles"] = float64(ph.after.gc - ph.before.gc)
	if ingested := float64(ph.acked); ingested > 0 {
		m["runtime.alloc_bytes_per_item"] = float64(ph.after.alloc-ph.before.alloc) / ingested
	}

	// Direct timed calls on the run's own inputs and frozen views.
	ph.directLayers(m, replayItems(in, sc.replayCap))
	if plain["ingest_items_per_s"] > 0 {
		bare := m["counters.update_ns_per_item"]
		if ph.o.workload == "query_mix" {
			bare = m["sketches.update_ns_per_item"]
		}
		m["core.e2e_over_bare_ratio"] = (1e9 / plain["ingest_items_per_s"]) / bare
	}
	if ph.o.workload == "ingest_durable" || ph.o.workload == "cluster_routed" {
		m["trace.overhead_share"] = 1 - traced["ingest_items_per_s"]/plain["ingest_items_per_s"]
	} else {
		m["trace.overhead_share"] = traced["query_p50_ms"]/plain["query_p50_ms"] - 1
	}
	return m
}

// directLayers fills the metrics measured by direct calls: decode, the
// bare-summary baselines and their queries, snapshot refresh, and the
// layers this workload's composition lacks.
func (ph *phase) directLayers(m map[string]float64, items []core.Item) {
	in, sys := ph.in, ph.sys

	// stream: decode the run's own bodies as the ingest handler does.
	var decItems int
	buf := make([]core.Item, core.DefaultBatchSize)
	bodies := in.bodies[:min(len(in.bodies), 16)]
	for _, b := range bodies {
		decItems += b.items
	}
	decNs := timeCalls(3, func() {
		for _, b := range bodies {
			src, err := stream.OpenIngest("application/octet-stream", bytes.NewReader(b.body), 0)
			if err != nil {
				return
			}
			for src.NextBatch(buf) > 0 {
			}
		}
	})
	m["stream.decode_ns_per_item"] = decNs / float64(decItems)

	// counters / sketches: single-threaded replay into fresh summaries.
	ssh := streamfreq.MustNew("SSH", phiPaper, 1)
	m["counters.update_ns_per_item"] = timeCalls(1, func() { core.UpdateBatches(ssh, items, core.DefaultBatchSize) }) / float64(len(items))
	cmhItems := items[:min(len(items), ph.o.sc.replayCap/2)]
	cmh := streamfreq.MustNew("CMH", phiPaper, 1)
	m["sketches.update_ns_per_item"] = timeCalls(1, func() { core.UpdateBatches(cmh, cmhItems, core.DefaultBatchSize) }) / float64(len(cmhItems))
	thr := func(s core.Summary) int64 { return max(1, int64(phiPaper*float64(s.N()))) }
	m["counters.topk_us"] = timeCalls(5, func() { _ = ssh.(*counters.SpaceSavingHeap).Query(thr(ssh)) }) / 1e3
	// The served view when the node serves a hierarchy, else the replay.
	h := cmh.(*sketches.Hierarchical)
	if c := sys.nodes[0].conc; c != nil {
		if v, ok := c.ServingView().(*sketches.Hierarchical); ok {
			h = v
		}
	}
	m["sketches.topk_us"] = timeCalls(3, func() { _ = h.Query(thr(h)) }) / 1e3
	m["sketches.hhh_us"] = timeCalls(3, func() { _ = h.HeavyPrefixes(thr(h)) }) / 1e3
	probe := items[:min(len(items), 1000)]
	m["sketches.estimate_us"] = timeCalls(3, func() {
		for _, x := range probe {
			_ = h.Estimate(x)
		}
	}) / float64(len(probe)) / 1e3
	var ri int
	m["sketches.range_us"] = timeCalls(9, func() {
		lo := uint64(ri) * 0x9e3779b97f4a7c15
		ri++
		_, _ = h.RangeEstimate(lo/2, lo/2+1<<62)
	}) / 1e3
	m["sketches.quantile_us"] = timeCalls(3, func() { _, _ = h.QuantileQuery(0.5) }) / 1e3

	// core: snapshot refresh on the serving target.
	n := sys.nodes[0]
	m["core.refresh_p50_us"] = timeCalls(15, func() {
		switch {
		case n.pipe != nil:
			n.pipe.RefreshSnapshot()
		case n.conc != nil:
			n.conc.RefreshSnapshot()
		default:
			n.table.Snapshot()
		}
	}) / 1e3

	if n.store == nil {
		ph.scratchWAL(m, items)
	}
	if sys.router == nil {
		ph.probeRouter(m)
	}
}

// scratchWAL measures the persist layer on a memory-only workload: the
// run's items appended through a fresh store (fsync every 10ms), then
// recovered.
func (ph *phase) scratchWAL(m map[string]float64, items []core.Item) {
	dir := filepath.Join(ph.o.workDir, "scratch-wal")
	defer os.RemoveAll(dir)
	open := func() (*persist.Store, *obs.Registry, error) {
		st, err := persist.Open(persist.Options{Dir: dir, Algo: "SSH", Fsync: persist.FsyncInterval,
			FsyncInterval: 10 * time.Millisecond, Decode: streamfreq.Decode})
		if err != nil {
			return nil, nil, err
		}
		reg := obs.NewRegistry()
		st.Instrument(reg)
		return st, reg, nil
	}
	st, reg, err := open()
	if err != nil {
		return
	}
	c := core.NewConcurrent(streamfreq.MustNew("SSH", phiPaper, 1))
	if _, err := st.Recover(c); err != nil {
		return
	}
	rec := &recorder{c: ph.c}
	c.PersistTo(tracedPersister{Persister: st, rec: rec})
	var lag int64
	before := scrapeFamilies(reg)
	for i := 0; i < len(items); i += core.DefaultBatchSize {
		c.UpdateBatch(items[i:min(i+core.DefaultBatchSize, len(items))])
		lag = max(lag, st.Lag())
	}
	after := scrapeFamilies(reg)
	var appendNs, appended float64
	for _, s := range rec.link() {
		appendNs += float64(s.dur())
		appended += float64(s.Items)
	}
	stats := st.Stats()
	_ = st.Close()
	m["persist.append_ns_per_item"] = appendNs / max(appended, 1)
	m["persist.fsyncs"] = float64(stats.Fsyncs)
	m["persist.fsync_p99_ms"] = histQuantile(addBuckets(nil, before, "freq_wal_fsync_seconds"),
		addBuckets(nil, after, "freq_wal_fsync_seconds"), 0.99) * 1e3
	m["persist.inline_drains"] = float64(stats.InlineDrains)
	m["persist.lag_max_items"] = float64(lag)
	st2, _, err := open()
	if err != nil {
		return
	}
	t0 := time.Now()
	rs, err := st2.Recover(core.NewConcurrent(streamfreq.MustNew("SSH", phiPaper, 1)))
	m["persist.recover_s"] = since(t0) / 1e9
	if err == nil {
		m["persist.replayed_records"] = float64(rs.ReplayedRecords)
	}
	_ = st2.Close()
}

// probeRouter measures the router and coordinator layers on a
// single-node workload: an in-process freqrouter over the run's node
// routes a few of the run's bodies, and a coordinator pulls the node.
// It runs after the correctness gate, since it ingests into the node.
func (ph *phase) probeRouter(m map[string]float64) {
	rec, n := &recorder{c: ph.c}, ph.sys.nodes[0]
	base := "http://" + n.addr
	fwdClient := router.NewHTTPClient(5 * time.Second)
	pullClient := router.NewHTTPClient(5 * time.Second)
	defer fwdClient.CloseIdleConnections()
	defer pullClient.CloseIdleConnections()
	rt, err := router.New(router.Options{
		Shards: []router.ShardConfig{{ID: "a", Replicas: []string{base}}},
		Client: rec.tracedClient("router.forward", fwdClient),
	})
	if err != nil {
		return
	}
	h := rec.traceHandler("router", "probe", lvHandler, rt.Handler())
	var routed float64
	for i, b := range ph.in.bodies[:min(len(ph.in.bodies), 8)] {
		req := httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(b.body))
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set(obs.TraceHeader, "probe-"+strconv.Itoa(i))
		h.ServeHTTP(httptest.NewRecorder(), req)
		routed += float64(b.items)
	}
	co, err := cluster.New(cluster.Options{
		Nodes: []string{base}, MergeEncoded: streamfreq.MergeEncoded,
		Client: rec.tracedClient("cluster.pull", pullClient),
	})
	if err == nil {
		for i := 0; i < 8; i++ {
			co.PullAll(context.Background())
		}
	}
	spans := rec.link()
	kids := childrenOf(spans)
	var self float64
	var fwd, pulls []float64
	var pullBytes float64
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "router.ingest":
			self += float64(selfTime(spans, kids, i))
		case "router.forward":
			fwd = append(fwd, float64(s.dur()))
		case "cluster.pull":
			pulls = append(pulls, float64(s.dur()))
			pullBytes += float64(s.Bytes)
		}
	}
	m["router.self_ns_per_item"] = self / max(routed, 1)
	m["router.forwards"] = float64(len(fwd))
	m["router.forward_p50_us"] = pct(fwd, 0.5) / 1e3
	m["router.forward_p99_us"] = pct(fwd, 0.99) / 1e3
	m["router.retries"] = float64(rt.Counters().Get("router.retries"))
	if co != nil {
		st := co.Stats()
		m["cluster.pulls"], m["cluster.pull_failures"] = 0, 0
		for _, ns := range st.Nodes {
			m["cluster.pulls"] += float64(ns.Pulls)
			m["cluster.pull_failures"] += float64(ns.Failures)
		}
	}
	m["cluster.pull_p50_ms"] = pct(pulls, 0.5) / 1e6
	m["cluster.pull_p99_ms"] = pct(pulls, 0.99) / 1e6
	m["cluster.pull_bytes"] = pullBytes
}
