package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/prng"
	"streamfreq/internal/stream"
	"streamfreq/internal/zipf"
)

// The four workloads. Every stream is Zipf z=1.1 over a scrambled
// 2^20-item universe, the paper's skew; summaries are provisioned at
// its φ=0.001 operating point unless stated otherwise.

const (
	universe = 1 << 20
	skew     = 1.1
	phiPaper = 0.001
)

// scale sizes one run. fullScale is the benchmark; tests use tinyScale.
type scale struct {
	bodyItems   int     // closed-loop ingest body (items)
	bodies      int     // distinct closed-loop bodies, cycled
	ckptItems   int     // ingest_durable: items under the seeded checkpoint
	tailItems   int     // ingest_durable: items in the seeded WAL tail
	preload     int     // query_mix: items preloaded at set-up
	queryRate   float64 // query_mix: queries per second
	trickle     int     // query_mix: items per trickle post
	trickleRate float64 // query_mix: trickle posts per second
	probeRate   float64 // visibility probes / coordinator queries per second
	tenants     int     // tenant_churn: namespaces
	resident    int     // tenant_churn: -tenant-max-resident
	tenantItems int     // tenant_churn: items per post
	tenantPosts int     // tenant_churn: distinct posts, cycled
	tenantRate  float64 // tenant_churn: posts per second
	tenantQRate float64 // tenant_churn: tenant queries per second
	setups      int     // set-ups per run; setup_s is their median
	replayCap   int     // items replayed into bare summaries
	pull        time.Duration
}

var fullScale = scale{
	bodyItems:   64 << 10,
	bodies:      48,
	ckptItems:   2_000_000,
	tailItems:   1_000_000,
	preload:     1_000_000,
	queryRate:   100,
	trickle:     4 << 10,
	trickleRate: 61, // 4Ki-item posts at ~250k items/s
	probeRate:   100,
	tenants:     8192,
	resident:    1024,
	tenantItems: 1 << 10,
	tenantPosts: 4096,
	tenantRate:  400,
	tenantQRate: 100,
	setups:      5,
	replayCap:   1 << 20,
	pull:        250 * time.Millisecond,
}

var tinyScale = scale{
	bodyItems:   4 << 10,
	bodies:      4,
	ckptItems:   20_000,
	tailItems:   10_000,
	preload:     20_000,
	queryRate:   50,
	trickle:     1 << 10,
	trickleRate: 20,
	probeRate:   50,
	tenants:     64,
	resident:    8,
	tenantItems: 256,
	tenantPosts: 128,
	tenantRate:  50,
	tenantQRate: 20,
	setups:      2,
	replayCap:   20_000,
	pull:        100 * time.Millisecond,
}

// workloads names the traffic mixes; DESIGN.md records why each was
// chosen and the daemon command lines each is equivalent to.
var workloads = []string{"ingest_durable", "query_mix", "cluster_routed", "tenant_churn"}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// inputs is everything a run sends, generated from the seed before any
// timer starts.
type inputs struct {
	prefix     []core.Item   // recovered (ingest_durable) or preloaded (query_mix) items
	ckptItems  int           // the prefix's checkpointed part
	bodies     []request     // ingest pool
	bodyItems  [][]core.Item // items of each ingest body
	queries    []request     // open-loop query pool
	probe      request       // global visibility probe
	tenantOf   []int         // tenant of each ingest body (tenant_churn)
	tenantName []string
}

// gen draws the workload's item stream.
type gen struct {
	z   *zipf.Generator
	rng *prng.Xoshiro256
}

func newGen(seed uint64) (*gen, error) {
	z, err := zipf.NewGenerator(universe, skew, seed, true)
	if err != nil {
		return nil, err
	}
	return &gen{z: z, rng: prng.New(seed ^ 0x9e3779b97f4a7c15)}, nil
}

// ingestBody builds one raw application/octet-stream ingest request.
func ingestBody(path string, items []core.Item, ref, tenant int) request {
	return request{
		kind: opIngest, method: "POST", path: path,
		body: stream.AppendRaw(make([]byte, 0, len(items)*8), items), items: len(items),
		ref: ref, tenant: tenant,
	}
}

func getReq(kind int, path string, global bool) request {
	return request{kind: kind, method: "GET", path: path, tenant: -1, global: global}
}

// makeInputs generates the workload's inputs from seed.
func makeInputs(w string, seed uint64, sc scale) (*inputs, error) {
	g, err := newGen(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{probe: getReq(opTopK, "/v1/topk?phi=0.5&k=1", true)}
	closedBodies := func() {
		for b := 0; b < sc.bodies; b++ {
			items := g.z.Stream(sc.bodyItems)
			in.bodyItems = append(in.bodyItems, items)
			in.bodies = append(in.bodies, ingestBody("/v1/ingest", items, b, -1))
		}
	}
	switch w {
	case "ingest_durable":
		in.ckptItems = sc.ckptItems
		in.prefix = g.z.Stream(sc.ckptItems + sc.tailItems)
		closedBodies()
	case "cluster_routed":
		closedBodies()
		in.probe = getReq(opTopK, "/v1/topk?phi=0.001&k=10", true)
	case "query_mix":
		in.prefix = g.z.Stream(sc.preload)
		n := int(sc.trickleRate*4) + 1
		for b := 0; b < n; b++ {
			items := g.z.Stream(sc.trickle)
			in.bodyItems = append(in.bodyItems, items)
			in.bodies = append(in.bodies, ingestBody("/v1/ingest", items, b, -1))
		}
		in.queries = queryMix(g, 4096)
	case "tenant_churn":
		tz, err := zipf.NewGenerator(sc.tenants, skew, seed+1, false)
		if err != nil {
			return nil, err
		}
		for t := 0; t < sc.tenants; t++ {
			in.tenantName = append(in.tenantName, fmt.Sprintf("t%04d", t))
		}
		for b := 0; b < sc.tenantPosts; b++ {
			t := int(tz.Next()) - 1
			items := g.z.Stream(sc.tenantItems)
			in.bodyItems = append(in.bodyItems, items)
			in.tenantOf = append(in.tenantOf, t)
			in.bodies = append(in.bodies, ingestBody("/v1/t/"+in.tenantName[t]+"/ingest", items, b, t))
		}
		for q := 0; q < 4096; q++ {
			t := int(tz.Next()) - 1
			rq := getReq(opTopK, "/v1/t/"+in.tenantName[t]+"/topk?phi=0.01&k=10", false)
			rq.tenant = t
			in.queries = append(in.queries, rq)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	return in, nil
}

// queryMix draws the query_mix pool: estimate 60%, topk 15%, hhh 10%,
// range 10%, quantile 5%. The weights keep the median inside one class
// (estimate, ~0.2 ms) and the p99 inside another (topk/hhh at φ=0.001,
// ~15 ms), never at a class boundary, so both repeat from run to run.
func queryMix(g *gen, n int) []request {
	phi := strconv.FormatFloat(phiPaper, 'g', -1, 64)
	out := make([]request, 0, n)
	for i := 0; i < n; i++ {
		u := g.rng.Float64()
		switch {
		case u < 0.60:
			out = append(out, getReq(opEstimate, "/v1/estimate?item="+strconv.FormatUint(uint64(g.z.Next()), 10), false))
		case u < 0.75:
			out = append(out, getReq(opTopK, "/v1/topk?phi="+phi, true))
		case u < 0.85:
			out = append(out, getReq(opHHH, "/v1/hhh?phi="+phi, true))
		case u < 0.95:
			lo, hi := g.rng.Uint64(), g.rng.Uint64()
			if lo > hi {
				lo, hi = hi, lo
			}
			out = append(out, getReq(opRange, "/v1/range?lo="+strconv.FormatUint(lo, 10)+"&hi="+strconv.FormatUint(hi, 10), true))
		default:
			q := 0.01 + 0.98*g.rng.Float64()
			out = append(out, getReq(opQuantile, "/v1/quantile?q="+strconv.FormatFloat(q, 'f', 4, 64), true))
		}
	}
	return out
}

// kForPhi is the registry's Space-Saving budget for threshold φ.
func kForPhi(phi float64) int64 {
	k := int64(1/phi) + 1
	if k < 2 {
		k = 2
	}
	return k
}

// median of a non-empty slice (copied, not mutated).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
