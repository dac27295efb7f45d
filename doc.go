// Package streamfreq finds the frequent items in data streams.
//
// It is a complete Go implementation of the algorithm roster compared in
// "Finding frequent items in data streams" (VLDB 2008): the counter-based
// summaries Frequent (Misra–Gries), Lossy Counting, and Space-Saving, and
// the sketch-based summaries Count-Min (with dyadic hierarchy), Count
// Sketch (Charikar, Chen & Farach-Colton), and Combinatorial Group
// Testing — together with the workload generators, metrics, and benchmark
// harness that regenerate the paper's experimental comparison.
//
// # The problem
//
// Given a stream of n items and a threshold φ, report every item
// occurring more than φn times (perfect recall) while reporting as few
// items below (φ−ε)n as possible (precision), using memory that does not
// grow with the stream. Counter-based summaries solve this
// deterministically with ⌈1/ε⌉ counters on insert-only streams; sketches
// solve it with probability 1−δ, and additionally support deletions,
// merging, and stream differencing.
//
// # Quick start
//
//	s := streamfreq.NewSpaceSaving(1000) // ε = 0.1%
//	for _, item := range stream {
//	    s.Update(item, 1)
//	}
//	for _, hh := range s.Query(int64(0.01 * float64(s.N()))) {
//	    fmt.Println(hh.Item, hh.Count)
//	}
//
// Use New(algo, phi, seed) to construct any summary by its paper code
// ("F", "LC", "LCD", "SSL", "SSH", "CM", "CS", "CMH", "CSH", "CGT")
// sized for threshold φ, which is how the benchmark harness provisions
// the contenders fairly.
//
// # Serving queries under ingest
//
// Every summary implements Snapshotter: Snapshot() returns an
// independent deep copy, frozen at the moment it is taken. The
// Concurrent and Pipelined wrappers build on this with ServeSnapshots,
// which answers Query/Estimate/N from an epoch snapshot refreshed at
// most once per staleness window — readers never take the ingest lock,
// so query traffic does not slow the batched ingest hot path. The freqd
// command (cmd/freqd) exposes the combination over HTTP: continuous
// binary or text ingest on POST /v1/ingest, heavy-hitter reports on
// GET /v1/topk, point estimates on GET /v1/estimate, and snapshot
// freshness on GET /v1/stats (pre-versioning paths remain as aliases;
// errors are a uniform JSON envelope).
//
// # Lock-free ingest plane
//
// For write-heavy deployments, NewPipelined partitions the stream by
// item across shard summaries and stages ingest: writers claim one
// global stream position with an atomic add, append to the write-ahead
// log at that ticket, stage the batch into per-shard bounded rings
// (internal/ring, sequence-stamped slots in the Vyukov MPSC style), and
// return; one drainer goroutine per shard applies slots strictly in
// claimed order. Per-shard apply order therefore equals global claim
// order: single-writer pipelined ingest is bit-identical to a
// sequential per-shard scatter, the WAL is never behind memory (append
// happens before staging), checkpoints and snapshot
// refreshes quiesce the rings at an exact cross-shard cut, and the
// steady-state hot path allocates nothing (slot buffers are reused
// after the first ring wrap; CI gates allocs/op at zero). freqd
// -shards N (N > 1) serves it, -shards 1 serves the single-mutex
// Concurrent; freqbench -writers measures one against the other.
//
// # Durability
//
// The serving stack is durable when given a data directory
// (internal/persist, freqd -data-dir): ingest batches are write-ahead
// logged before they are applied, checkpoints serialize the summary
// with the same per-algorithm wire formats Decode dispatches on, and
// startup recovery replays the log tail on top of the last checkpoint —
// so a crashed server restarts bit-identically to an unfailed run at
// its last durable point, the paper's long-lived-deployment assumption
// made operational. Every registry algorithm is checkpointable; the
// crash contract is pinned registry-wide by recovery_test.go.
//
// # Windowed serving
//
// The sliding-window summary (NewWindowed, "SSW") answers the
// recent-past form of the question: heavy hitters over roughly the
// last W arrivals, via B blocks of Space-Saving summaries whose oldest
// block expires as the window slides. It implements the full summary
// contract — batched ingest split at block boundaries, deep-copy
// snapshots, the WN01 wire format, and recency-aligned merging — so
// the same serving, durability, and cluster machinery carries it:
// freqd -window serves /topk at the φ·W operating point, checkpoints
// hold only the live blocks (durable state is O(W) forever, and a
// recovered window is bit-identical to its durable prefix), and a
// coordinator over windowed nodes merges the cluster's recent traffic.
// Estimates are one-sided, overestimating by at most the advertised
// Slack (εW of per-block error plus one boundary block of expired
// items).
//
// # Rich queries and wall-clock horizons
//
// Beyond point estimates and top-k, the serving surface answers three
// richer questions, capability-dispatched by the algorithm behind the
// view: GET /v1/hhh reports hierarchical heavy hitters — every heavy
// prefix at every granularity of the item space, with the residual
// discount of Cormode et al. separating prefixes heavy in aggregate
// from prefixes heavy only through one elephant child (the dyadic
// hierarchies, -algo cmh or csh) — GET /v1/range estimates the
// arrivals in a value interval (hierarchies via a dyadic cover, GK via
// a rank difference), and GET /v1/quantile returns the value at rank
// q·N (the Greenwald–Khanna summary, -algo gk, natively at ε = φ/2;
// the hierarchies via prefix sums). The routes are always registered;
// a summary without the capability answers 404 naming the -algo
// choices that have it. All three ride the registry contract —
// snapshots, merging, and the HI01/GK01 wire formats — so a freqmerge
// coordinator answers the same queries over the cluster's union
// stream, and a WAL-recovered node serves them bit-identically.
// Orthogonally, freqd -horizons 1m,1h,24h keeps an
// exponential-histogram bucket ring per wall-clock horizon, and
// ?horizon= on topk/hhh/range/quantile answers over roughly that much
// recent past (memory-only; thresholds scale against the horizon's
// own stream length).
//
// # Distributed merge
//
// Summaries merge: MergeEncoded(blobs...) decodes per-node Encode blobs
// and folds them into one summary of the union stream, with each
// algorithm's guarantee intact (the paper's X2 experiment). The cluster
// layer (internal/cluster, cmd/freqmerge) runs this as a service: every
// freqd node ships its state on GET /summary (a snapshot blob plus its
// stream position and process epoch), and a coordinator pulls all of
// them on an interval, merges, and serves the union over the node API —
// replacement-not-addition semantics make re-pulls and WAL-recovered
// restarts double-count-proof, unreachable nodes are served stale with
// the staleness surfaced, and mixed-algorithm nodes are rejected.
// Coordinators serve GET /summary themselves, so tiers stack. Merge
// fidelity is pinned registry-wide by merge_test.go.
//
// # Partitioned writes
//
// Merging scales reads over independently-fed nodes; the router tier
// (internal/router, cmd/freqrouter) scales writes. A consistent-hash
// ring over the shard IDs assigns every item to exactly one shard, the
// router splits each ingest batch along ring ownership, and forwards
// each piece to its shard's replicas concurrently — so the shards hold
// disjoint substreams and each one is an exact partition, not an
// overlapping replica. That changes the serving math: a coordinator
// given the router's shard map (freqmerge -router) answers Estimate
// from the one shard that owns the item, at that shard's own substream
// length n_p — a strictly tighter error envelope than φ·N — and never
// merges partitions (merging would re-add the collision noise and
// overestimate inflation that partitioning just removed). Replication
// is for failover, not fan-in: a batch is acknowledged when at least
// one replica of its shard accepted it, dead replicas are skipped and
// re-adopted by epoch-aware probes, and the coordinator reads exactly
// one replica per shard, so restarts never double-count. The chaos
// wall (TestRouterKillRecover) kills a follower and a primary mid-run,
// WAL-recovers both under new epochs, and requires the merged N to
// equal the acknowledged arrivals exactly.
//
// # Observability
//
// Every daemon carries one observability plane (internal/obs, zero
// dependencies): GET /v1/metrics serves Prometheus text exposition —
// atomic counters and gauges plus fixed-boundary log₂ latency
// histograms, so hot-path instrumentation is an atomic add or two,
// never a lock or an allocation. WAL fsync latency and lag, ingest
// apply time, ring occupancy, snapshot age, tenant residency, per-
// shard routing and replica health, and coordinator pull freshness
// are all first-class series, with cardinality bounded by
// construction (per-shard labels, never per-tenant or per-item).
// Requests carry an X-Freq-Trace ID — adopted from the caller or
// minted, echoed on the response, propagated across router forwards
// and coordinator pulls — and every daemon logs structured log/slog
// request records (-log-format text|json) where the same ID appears,
// so one grep follows a request across the whole tier. A -slow-query
// threshold upgrades slow requests to warnings with per-stage
// timings. /stats stays the human-readable JSON view of the same
// counters.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction results.
package streamfreq
