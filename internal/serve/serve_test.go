package serve_test

// End-to-end coverage for the freqd serving layer: a real HTTP server on
// a loopback port, a Zipf stream ingested over the wire (concurrently,
// in binary batches), and /topk scored against internal/exact at the φn
// operating point — recall must be perfect (Space-Saving never
// underestimates) and every reported item's true count must clear the
// threshold minus the summary's n/k error bound.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"streamfreq"
	"streamfreq/internal/core"
	"streamfreq/internal/exact"
	"streamfreq/internal/metrics"
	"streamfreq/internal/serve"
	"streamfreq/internal/stream"
	"streamfreq/internal/testutil"
	"streamfreq/internal/zipf"
)

type topkResponse struct {
	N         int64 `json:"n"`
	Threshold int64 `json:"threshold"`
	Items     []struct {
		Item  uint64 `json:"item"`
		Count int64  `json:"count"`
		Token string `json:"token"`
	} `json:"items"`
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func post(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func postOK(t *testing.T, url, contentType string, body []byte) {
	t.Helper()
	resp := post(t, url, contentType, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %s: %s", url, resp.Status, b)
	}
}

func TestFreqdEndToEnd(t *testing.T) {
	const (
		phi     = 0.001
		seed    = 1
		streamN = 200_000
	)
	target := core.NewConcurrent(streamfreq.MustNew("SSH", phi, seed)).
		ServeSnapshots(5 * time.Millisecond)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, err := zipf.NewGenerator(1<<16, 1.1, 0xFEED, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(streamN)

	// Concurrent binary ingest over the wire, in chunks, while queries
	// run against whatever snapshot is being served.
	const chunks = 16
	var wg sync.WaitGroup
	share := (len(items) + chunks - 1) / chunks
	for w := 0; w < 2; w++ { // two concurrent clients
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chunks; c += 2 {
				lo := min(c*share, len(items))
				hi := min(lo+share, len(items))
				if lo >= hi {
					continue
				}
				body := stream.AppendRaw(nil, items[lo:hi])
				postOK(t, ts.URL+"/ingest", "application/octet-stream", body)
				// Interleave reads with ingest: they must never error,
				// whatever snapshot epoch they land on.
				var tr topkResponse
				getJSON(t, ts.URL+fmt.Sprintf("/topk?phi=%g", phi), &tr)
			}
		}(w)
	}
	wg.Wait()

	// Deterministic cutover, then score the report against exact truth.
	postOK(t, ts.URL+"/refresh", "application/json", nil)

	var tr topkResponse
	getJSON(t, ts.URL+fmt.Sprintf("/topk?phi=%g", phi), &tr)
	if tr.N != streamN {
		t.Fatalf("/topk n = %d, want %d", tr.N, streamN)
	}
	threshold := int64(phi * float64(streamN))
	if tr.Threshold != threshold {
		t.Fatalf("/topk threshold = %d, want %d", tr.Threshold, threshold)
	}

	truth := exact.New()
	for _, it := range items {
		truth.Update(it, 1)
	}
	truthMap := metrics.TruthMap(truth.TopK(truth.Distinct()), threshold)
	report := make([]core.ItemCount, len(tr.Items))
	for i, it := range tr.Items {
		report[i] = core.ItemCount{Item: core.Item(it.Item), Count: it.Count}
	}
	acc := metrics.Evaluate(report, truthMap)
	if acc.Recall != 1 {
		t.Fatalf("recall at φn = %v, want perfect (report %d items, truth %d): %s",
			acc.Recall, len(report), len(truthMap), acc)
	}
	// Precision bound: SSH overestimates by at most n/k, so every
	// reported item's true count is at least threshold − n/k.
	k := int(1/phi) + 1
	floor := threshold - int64(streamN/k)
	for _, ic := range report {
		if truth.Estimate(ic.Item) < floor {
			t.Fatalf("reported item %d has true count %d < support floor %d",
				ic.Item, truth.Estimate(ic.Item), floor)
		}
	}

	// Point estimates: SSH never underestimates a tracked heavy item.
	top := truth.TopK(5)
	for _, ic := range top {
		var er struct {
			Item     uint64 `json:"item"`
			Estimate int64  `json:"estimate"`
		}
		getJSON(t, ts.URL+fmt.Sprintf("/estimate?item=%d", uint64(ic.Item)), &er)
		if er.Estimate < ic.Count {
			t.Fatalf("/estimate item %d = %d, below true count %d", ic.Item, er.Estimate, ic.Count)
		}
	}

	// /stats must reflect the full stream and an enabled serving snapshot.
	var st struct {
		Algo     string           `json:"algo"`
		N        int64            `json:"n"`
		Bytes    int              `json:"bytes"`
		Counters map[string]int64 `json:"counters"`
		Snapshot struct {
			Serving   bool  `json:"serving"`
			AsOfN     int64 `json:"as_of_n"`
			AgeMs     int64 `json:"age_ms"`
			Refreshes int64 `json:"refreshes"`
		} `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Algo != "SSH" || st.N != streamN || st.Bytes <= 0 {
		t.Fatalf("/stats = %+v, want SSH summary over %d items", st, streamN)
	}
	if !st.Snapshot.Serving || st.Snapshot.AsOfN != streamN || st.Snapshot.Refreshes < 1 {
		t.Fatalf("/stats snapshot = %+v, want serving view of the full stream", st.Snapshot)
	}
	if st.Counters["ingest.items"] != streamN || st.Counters["queries.topk"] < chunks {
		t.Fatalf("/stats counters = %v, want %d ingested items and ≥%d topk queries",
			st.Counters, streamN, chunks)
	}
}

// TestFreqdTextIngest drives the text ingest path end to end: tokens in,
// token-labeled report out.
func TestFreqdTextIngest(t *testing.T) {
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	text := strings.Repeat("alpha beta alpha gamma alpha beta\n", 50)
	postOK(t, ts.URL+"/ingest", "text/plain", []byte(text))
	// Media types are case-insensitive; a capitalized variant must land
	// on the same decoder (3 more alphas below).
	postOK(t, ts.URL+"/ingest", "Text/Plain; charset=utf-8", []byte("alpha alpha alpha"))

	var er struct {
		Estimate int64 `json:"estimate"`
	}
	getJSON(t, ts.URL+"/estimate?token=alpha", &er)
	if er.Estimate != 153 {
		t.Fatalf("estimate(alpha) = %d, want 153", er.Estimate)
	}

	var tr topkResponse
	getJSON(t, ts.URL+"/topk?phi=0.2", &tr)
	if len(tr.Items) == 0 || tr.Items[0].Token != "alpha" || tr.Items[0].Count != 153 {
		t.Fatalf("/topk = %+v, want alpha×153 first", tr.Items)
	}
}

// TestFreqdStreamFileIngest posts an SFSTRM01 stream file body.
func TestFreqdStreamFileIngest(t *testing.T) {
	target := core.NewConcurrent(exact.New()).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	items := []core.Item{7, 7, 7, 9, 9, 42}
	var buf bytes.Buffer
	if err := stream.Write(&buf, "e2e", items); err != nil {
		t.Fatal(err)
	}
	postOK(t, ts.URL+"/ingest", "application/x-sfstream", buf.Bytes())

	var er struct {
		Estimate int64 `json:"estimate"`
	}
	getJSON(t, ts.URL+"/estimate?item=7", &er)
	if er.Estimate != 3 {
		t.Fatalf("estimate(7) = %d, want 3", er.Estimate)
	}
	getJSON(t, ts.URL+"/estimate?item=0x2a", &er)
	if er.Estimate != 1 {
		t.Fatalf("estimate(0x2a) = %d, want 1", er.Estimate)
	}
}

// TestFreqdErrorPaths is the table of wire-level rejections: every bad
// request must come back as a 4xx with a JSON error, never a 500 or a
// hang, and must not corrupt the summary.
func TestFreqdErrorPaths(t *testing.T) {
	target := core.NewConcurrent(exact.New()).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, MaxIngestBytes: 1 << 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, method, path, contentType string
		body                            []byte
		wantStatus                      int
	}{
		{"ingest GET", http.MethodGet, "/ingest", "", nil, http.StatusMethodNotAllowed},
		{"ingest bad content type", http.MethodPost, "/ingest", "application/json", []byte("{}"), http.StatusUnsupportedMediaType},
		{"ingest torn binary item", http.MethodPost, "/ingest", "application/octet-stream", []byte{1, 2, 3}, http.StatusBadRequest},
		{"ingest bad stream file", http.MethodPost, "/ingest", "application/x-sfstream", []byte("NOTASTREAM"), http.StatusBadRequest},
		{"ingest oversized body", http.MethodPost, "/ingest", "application/octet-stream", make([]byte, 1<<11), http.StatusRequestEntityTooLarge},
		{"topk POST", http.MethodPost, "/topk", "", nil, http.StatusMethodNotAllowed},
		{"topk bad phi", http.MethodGet, "/topk?phi=2", "", nil, http.StatusBadRequest},
		{"topk bad threshold", http.MethodGet, "/topk?threshold=-1", "", nil, http.StatusBadRequest},
		{"topk bad k", http.MethodGet, "/topk?phi=0.1&k=-2", "", nil, http.StatusBadRequest},
		{"estimate no arg", http.MethodGet, "/estimate", "", nil, http.StatusBadRequest},
		{"estimate bad item", http.MethodGet, "/estimate?item=zzz", "", nil, http.StatusBadRequest},
		{"stats POST", http.MethodPost, "/stats", "", nil, http.StatusMethodNotAllowed},
		{"refresh GET", http.MethodGet, "/refresh", "", nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.contentType != "" {
				req.Header.Set("Content-Type", tc.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s %s: status %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.wantStatus, b)
			}
			var errBody struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil || errBody.Error.Code == "" || errBody.Error.Message == "" {
				t.Fatalf("%s %s: error body not the {\"error\":{\"code\",\"message\"}} envelope (%v)", tc.method, tc.path, err)
			}
		})
	}
}

// TestFreqdGracefulShutdown exercises the ListenAndServe stop path the
// daemon's signal handler drives.
func TestFreqdGracefulShutdown(t *testing.T) {
	target := core.NewConcurrent(exact.New()).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target})

	// Reserve a loopback port so the test can observe the server come up
	// (ListenAndServe doesn't report its bound address), then poll /stats
	// until it answers — the shutdown below exercises a genuinely serving
	// server, not a race against its own startup.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(addr, stop) }()
	testutil.Eventually(t, 5*time.Second, func() bool {
		resp, err := http.Get("http://" + addr + "/stats")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}, "server never started serving on %s", addr)
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// TestSummaryEndpoint: GET /summary ships a decodable registry blob of
// the node's full state with the position and epoch headers a
// coordinator relies on — and the blob is a consistent snapshot, so
// decoding it and querying locally must agree with the node's own /topk.
func TestSummaryEndpoint(t *testing.T) {
	const epoch = 424242
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH", Epoch: epoch})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, err := zipf.NewGenerator(1<<12, 1.2, 99, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(50_000)
	postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items))

	resp, err := http.Get(ts.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /summary: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != serve.SummaryContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, serve.SummaryContentType)
	}
	if a := resp.Header.Get(serve.HeaderAlgo); a != "SSH" {
		t.Fatalf("%s = %q, want SSH", serve.HeaderAlgo, a)
	}
	if e := resp.Header.Get(serve.HeaderEpoch); e != "424242" {
		t.Fatalf("%s = %q, want 424242", serve.HeaderEpoch, e)
	}
	if n := resp.Header.Get(serve.HeaderN); n != fmt.Sprint(len(items)) {
		t.Fatalf("%s = %q, want %d", serve.HeaderN, n, len(items))
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := streamfreq.Decode(blob)
	if err != nil {
		t.Fatalf("decoding /summary blob: %v", err)
	}
	if decoded.N() != int64(len(items)) {
		t.Fatalf("decoded blob N = %d, want %d", decoded.N(), len(items))
	}

	// The decoded summary answers exactly like the node it was pulled
	// from: same φn report, item for item.
	var tr topkResponse
	getJSON(t, ts.URL+"/topk?phi=0.01", &tr)
	local := decoded.Query(tr.Threshold)
	if len(local) != len(tr.Items) {
		t.Fatalf("decoded blob reports %d items, node reports %d", len(local), len(tr.Items))
	}
	for i, ic := range local {
		if uint64(ic.Item) != tr.Items[i].Item || ic.Count != tr.Items[i].Count {
			t.Fatalf("report[%d]: decoded %+v, node %+v", i, ic, tr.Items[i])
		}
	}

	// Epoch is stable across pulls within one process lifetime.
	resp2, err := http.Get(ts.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if e := resp2.Header.Get(serve.HeaderEpoch); e != "424242" {
		t.Fatalf("second pull epoch %q, want unchanged 424242", e)
	}

	// Method check mirrors the other GET endpoints.
	pr := post(t, ts.URL+"/summary", "application/json", nil)
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /summary: %s, want 405", pr.Status)
	}
}

// TestSummaryEndpointSharded: a sharded (pipelined) node ships one blob
// covering all shards (Snapshot merges them), so the coordinator never
// needs to know a node's internal shard count.
func TestSummaryEndpointSharded(t *testing.T) {
	target := core.NewPipelined(4, func() core.Summary {
		return streamfreq.MustNew("SSL", 0.01, 1)
	}).ServeSnapshots(0)
	defer target.Close()
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSL"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, err := zipf.NewGenerator(1<<12, 1.2, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(40_000)
	postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items))

	resp, err := http.Get(ts.URL + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := streamfreq.Decode(blob)
	if err != nil {
		t.Fatalf("decoding sharded /summary blob: %v", err)
	}
	if decoded.N() != int64(len(items)) || decoded.Name() != "SSL" {
		t.Fatalf("decoded %s with N=%d, want SSL with N=%d", decoded.Name(), decoded.N(), len(items))
	}
}

// TestFreqdPipelinedTarget serves the lock-free ingest plane end to
// end: wire ingest lands through the staging rings, /topk answers over
// the full stream after a refresh, and /stats surfaces the pipeline
// section (claimed vs applied positions, ring bytes).
func TestFreqdPipelinedTarget(t *testing.T) {
	const phi, streamN = 0.001, 100_000
	p := core.NewPipelined(4, func() core.Summary {
		return streamfreq.MustNew("SSH", phi, 1)
	}).ServeSnapshots(5 * time.Millisecond)
	defer p.Close()
	srv := serve.NewServer(serve.Options{Target: p, Algo: "SSH"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g, err := zipf.NewGenerator(1<<16, 1.1, 0xFEED, true)
	if err != nil {
		t.Fatal(err)
	}
	items := g.Stream(streamN)
	const chunk = 10_000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // two concurrent ingest clients
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * chunk; lo < len(items); lo += 2 * chunk {
				hi := min(lo+chunk, len(items))
				postOK(t, ts.URL+"/ingest", "application/octet-stream", stream.AppendRaw(nil, items[lo:hi]))
			}
		}(w)
	}
	wg.Wait()
	postOK(t, ts.URL+"/refresh", "application/json", nil)

	var tr topkResponse
	getJSON(t, ts.URL+fmt.Sprintf("/topk?phi=%g", phi), &tr)
	if tr.N != streamN {
		t.Fatalf("/topk n = %d, want %d (refresh must barrier every staged batch)", tr.N, streamN)
	}

	var st struct {
		N        int64 `json:"n"`
		Pipeline struct {
			Shards       int   `json:"shards"`
			RingCapacity int   `json:"ring_capacity"`
			ClaimedN     int64 `json:"claimed_n"`
			AppliedN     int64 `json:"applied_n"`
			Staged       int64 `json:"staged"`
			RingBytes    int   `json:"ring_bytes"`
		} `json:"pipeline"`
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Pipeline.Shards != 4 || st.Pipeline.RingCapacity != core.DefaultRingCapacity {
		t.Fatalf("/stats pipeline = %+v, want 4 shards at the default ring capacity", st.Pipeline)
	}
	if st.Pipeline.ClaimedN != streamN {
		t.Fatalf("/stats pipeline claimed_n = %d, want %d", st.Pipeline.ClaimedN, streamN)
	}
	if st.Pipeline.AppliedN+st.Pipeline.Staged != st.Pipeline.ClaimedN {
		t.Fatalf("/stats pipeline applied+staged = %d+%d, want claimed %d",
			st.Pipeline.AppliedN, st.Pipeline.Staged, st.Pipeline.ClaimedN)
	}
}
