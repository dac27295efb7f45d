package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"streamfreq/internal/core"
	"streamfreq/internal/exact"
)

// The correctness gate. The generator knows exactly what was acked;
// after a forced refresh every run checks the served state against that
// truth and fails loudly, naming each check that did not hold.

// truth is the exact state the system must serve.
type truth struct {
	all     *exact.Counter   // every acked item, set-up prefix included
	tenants []*exact.Counter // per namespace (tenant_churn)
	sorted  []core.ItemCount // all, ordered by item value, for ranks
	prefix  []int64          // prefix[i] = total count of sorted[:i]
}

// buildTruth folds the set-up prefix and every acked body into exact
// counts. Bodies are cycled, so each body is applied once with the
// number of times it was acked as its weight.
func buildTruth(in *inputs, samples []sample) *truth {
	uses := make([]int64, len(in.bodies))
	for i := range samples {
		s := &samples[i]
		if s.ok && s.kind == opIngest {
			uses[s.ref]++
		}
	}
	t := &truth{all: exact.New()}
	for _, x := range in.prefix {
		t.all.Update(x, 1)
	}
	if in.tenantName != nil {
		t.tenants = make([]*exact.Counter, len(in.tenantName))
		for ns := range t.tenants {
			t.tenants[ns] = exact.New()
			for _, x := range tenantSeed(ns) {
				t.tenants[ns].Update(x, 1)
				t.all.Update(x, 1)
			}
		}
	}
	for b, u := range uses {
		if u == 0 {
			continue
		}
		for _, x := range in.bodyItems[b] {
			t.all.Update(x, u)
			if t.tenants != nil {
				t.tenants[in.tenantOf[b]].Update(x, u)
			}
		}
	}
	return t
}

// tenantSeed is the small body set-up ingests into namespace ns, so
// every namespace exists before the first query names it.
func tenantSeed(ns int) []core.Item {
	out := make([]core.Item, 16)
	for i := range out {
		out[i] = core.Item(uint64(ns)<<8 | uint64(i))
	}
	return out
}

// rank returns the exact number of items with value < v.
func (t *truth) rank(v uint64) int64 {
	t.index()
	i := sort.Search(len(t.sorted), func(i int) bool { return uint64(t.sorted[i].Item) >= v })
	return t.prefix[i]
}

// rangeCount returns the exact count of items in [lo, hi].
func (t *truth) rangeCount(lo, hi uint64) int64 {
	t.index()
	i := sort.Search(len(t.sorted), func(i int) bool { return uint64(t.sorted[i].Item) > hi })
	return t.prefix[i] - t.rank(lo)
}

func (t *truth) index() {
	if t.sorted != nil {
		return
	}
	t.sorted = t.all.Query(1)
	sort.Slice(t.sorted, func(i, j int) bool { return t.sorted[i].Item < t.sorted[j].Item })
	t.prefix = make([]int64, len(t.sorted)+1)
	for i, ic := range t.sorted {
		t.prefix[i+1] = t.prefix[i] + ic.Count
	}
}

// gate collects failed checks.
type gate struct {
	failed []string
}

func (g *gate) check(ok bool, name, format string, args ...any) {
	if !ok {
		g.failed = append(g.failed, name+": "+fmt.Sprintf(format, args...))
	}
}

// getJSON fetches path from t and decodes the JSON body into v.
func getJSON(t *target, method, path string, v any) error {
	req, err := http.NewRequest(method, t.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

type topkResp struct {
	N         int64 `json:"n"`
	Threshold int64 `json:"threshold"`
	Items     []struct {
		Item  uint64 `json:"item"`
		Count int64  `json:"count"`
	} `json:"items"`
}

// checkTopK checks recall (every item whose exact count exceeds φN is
// reported) and returns how many reported items truly exceed φN.
func (g *gate) checkTopK(t *target, path string, phi float64, ex *exact.Counter, name string) (good, reported int) {
	var r topkResp
	if err := getJSON(t, "GET", path, &r); err != nil {
		g.check(false, name+".topk", "%v", err)
		return 0, 0
	}
	cut := phi * float64(ex.N())
	seen := make(map[core.Item]bool, len(r.Items))
	for _, it := range r.Items {
		seen[core.Item(it.Item)] = true
		if float64(ex.Estimate(core.Item(it.Item))) > cut {
			good++
		}
	}
	missed := 0
	for _, ic := range ex.Query(int64(cut)) {
		if float64(ic.Count) > cut && !seen[ic.Item] {
			missed++
		}
	}
	g.check(missed == 0, name+".recall", "%d items above φN=%.0f missing from %s", missed, cut, path)
	return good, len(r.Items)
}

// checkEstimates checks point estimates against the algorithm's bound:
// Space-Saving answers true ≤ est ≤ true + N/k, Count-Min est ≥ true.
func (g *gate) checkEstimates(t *target, prefix string, items []core.Item, ex *exact.Counter, k int64, name string) {
	bad := 0
	var first string
	for _, x := range items {
		var r struct {
			Estimate int64 `json:"estimate"`
		}
		if err := getJSON(t, "GET", prefix+"/estimate?item="+strconv.FormatUint(uint64(x), 10), &r); err != nil {
			g.check(false, name+".estimate", "%v", err)
			return
		}
		tr := ex.Estimate(x)
		ok := r.Estimate >= tr
		if k > 0 {
			ok = ok && r.Estimate <= tr+ex.N()/k
		}
		if !ok {
			bad++
			if first == "" {
				first = fmt.Sprintf("item %d: est %d, true %d, N %d", x, r.Estimate, tr, ex.N())
			}
		}
	}
	g.check(bad == 0, name+".estimate_bound", "%d of %d estimates outside the bound (%s)", bad, len(items), first)
}

// checkItems picks the items whose estimates the gate checks: the
// heaviest, a seeded sample of the stream, and a few never-seen values.
func checkItems(ex *exact.Counter, pool [][]core.Item, seed uint64) []core.Item {
	var out []core.Item
	for _, ic := range ex.TopK(40) {
		out = append(out, ic.Item)
	}
	for i := 0; i < 40 && len(pool) > 0; i++ {
		b := pool[(seed+uint64(i)*7919)%uint64(len(pool))]
		out = append(out, b[(seed*31+uint64(i)*104729)%uint64(len(b))])
	}
	for i := 0; i < 8; i++ {
		out = append(out, core.Item(seed*0x9e3779b97f4a7c15+uint64(i)*0xbf58476d1ce4e5b9))
	}
	return out
}

// checkRanges checks range and quantile answers of a Count-Min
// hierarchy against their one-sided guarantees: a range estimate never
// undercounts, and the q-quantile v returned is the smallest value whose
// estimated rank reaches ⌈qN⌉, so the exact rank below v stays under it.
func (g *gate) checkRanges(t *target, tr *truth, seed uint64) {
	n := tr.all.N()
	for i := 0; i < 10; i++ {
		lo := (seed + uint64(i)) * 0x9e3779b97f4a7c15
		hi := lo + (uint64(i)+1)*(1<<59)
		if hi < lo {
			lo, hi = hi, lo
		}
		var r struct {
			Estimate int64 `json:"estimate"`
		}
		if err := getJSON(t, "GET", fmt.Sprintf("/v1/range?lo=%d&hi=%d", lo, hi), &r); err != nil {
			g.check(false, "range", "%v", err)
			return
		}
		exactN := tr.rangeCount(lo, hi)
		g.check(r.Estimate >= exactN, "range_bound", "[%d,%d]: estimate %d below exact %d", lo, hi, r.Estimate, exactN)
	}
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		var r struct {
			Value uint64 `json:"value"`
		}
		if err := getJSON(t, "GET", fmt.Sprintf("/v1/quantile?q=%g", q), &r); err != nil {
			g.check(false, "quantile", "%v", err)
			return
		}
		target := int64(math.Ceil(q * float64(n)))
		below := tr.rank(r.Value)
		g.check(below < target, "quantile_bound", "q=%g: value %d has exact rank %d below it, want < %d", q, r.Value, below, target)
	}
}

// refreshN reads the n a forced refresh (or, for a tenant table, which
// serves without snapshots, a probe) reports.
func refreshN(t *target, probe string, refresh bool) (int64, error) {
	var r struct {
		N int64 `json:"n"`
	}
	if refresh {
		err := getJSON(t, "POST", "/v1/refresh", &r)
		return r.N, err
	}
	err := getJSON(t, "GET", probe, &r)
	return r.N, err
}
