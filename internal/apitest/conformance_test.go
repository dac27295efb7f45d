package apitest_test

// One executable API contract, three daemons: freqd (single-mutex,
// pipelined, and multi-tenant), freqmerge (flat and tenant-merge), and
// freqrouter all run through apitest.Conform with their route tables.
// The daemons are built the way their commands build them — real
// serve.Server, cluster.Coordinator over a loopback node, router.Router
// over a loopback replica — so a route that drifts out of the contract
// fails here before any client notices.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamfreq"
	"streamfreq/internal/apitest"
	"streamfreq/internal/cluster"
	"streamfreq/internal/core"
	"streamfreq/internal/router"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

// freqdRoutes is the node surface; tenant routes ride behind -tenants.
var freqdRoutes = []apitest.Route{
	{Method: http.MethodPost, Path: "/ingest", Aliases: []string{"/ingest"}},
	{Method: http.MethodGet, Path: "/metrics"},
	{Method: http.MethodGet, Path: "/topk", Aliases: []string{"/topk"}},
	{Method: http.MethodGet, Path: "/estimate", Aliases: []string{"/estimate"}},
	{Method: http.MethodGet, Path: "/summary", Aliases: []string{"/summary"}},
	{Method: http.MethodGet, Path: "/stats", Aliases: []string{"/stats"}},
	{Method: http.MethodPost, Path: "/refresh", Aliases: []string{"/refresh"}},
	{Method: http.MethodPost, Path: "/checkpoint", Aliases: []string{"/checkpoint"}},
}

// richQueryRoutes is the PR-9 capability-dispatched surface. The routes
// are always registered (only /v1, no legacy aliases — they were born
// versioned), but they answer 404 when the serving algorithm lacks the
// capability, so they are conformance-probed only against a backing
// summary that has it.
var richQueryRoutes = []apitest.Route{
	{Method: http.MethodGet, Path: "/hhh"},
	{Method: http.MethodGet, Path: "/range"},
	{Method: http.MethodGet, Path: "/quantile"},
}

var freqdTenantRoutes = []apitest.Route{
	{Method: http.MethodPost, Path: "/t/demo/ingest"},
	{Method: http.MethodGet, Path: "/t/demo/topk"},
	{Method: http.MethodGet, Path: "/t/demo/estimate"},
	{Method: http.MethodGet, Path: "/t/demo/stats"},
	{Method: http.MethodGet, Path: "/tenants"},
	{Method: http.MethodGet, Path: "/tenants/summary"},
}

func TestFreqdConformance(t *testing.T) {
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	target.UpdateBatch([]core.Item{1, 2, 3})
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH"})
	apitest.Conform(t, srv.Handler(), freqdRoutes)
	apitest.ConformIngest(t, srv.Handler(), "/v1/ingest")
	apitest.ConformIngest(t, srv.Handler(), "/ingest")
	apitest.ConformMetrics(t, srv.Handler(),
		"freq_http_request_seconds", "freq_http_requests_total",
		"freq_build_info", "freq_uptime_seconds", "freq_stream_n",
		"freq_ingest_batch_items", "freq_ingest_apply_seconds",
		"freq_snapshot_age_seconds", "freq_snapshot_refreshes_total")
}

// TestFreqdPipelinedConformance runs the node contract on the plane
// freqd serves for -shards 2: the staged Pipelined plane.
func TestFreqdPipelinedConformance(t *testing.T) {
	target := core.NewPipelined(2, func() core.Summary {
		return streamfreq.MustNew("SSH", 0.01, 1)
	}).ServeSnapshots(0)
	defer target.Close()
	target.UpdateBatch([]core.Item{1, 2, 3})
	srv := serve.NewServer(serve.Options{Target: target, Algo: "SSH"})
	apitest.Conform(t, srv.Handler(), freqdRoutes)
	apitest.ConformIngest(t, srv.Handler(), "/v1/ingest")
	apitest.ConformIngest(t, srv.Handler(), "/ingest")
	apitest.ConformMetrics(t, srv.Handler(),
		"freq_http_request_seconds", "freq_http_requests_total",
		"freq_build_info", "freq_uptime_seconds", "freq_stream_n",
		"freq_ingest_batch_items", "freq_ingest_apply_seconds",
		"freq_snapshot_age_seconds", "freq_snapshot_refreshes_total",
		"freq_pipeline_staged_items", "freq_pipeline_ring_bytes",
		"freq_pipeline_shards", "freq_pipeline_ring_occupancy",
		"freq_pipeline_claimed_items_total", "freq_pipeline_applied_items_total")
}

func TestFreqdTenantConformance(t *testing.T) {
	table := newDemoTable(t)
	srv := serve.NewServer(serve.Options{Target: table, Algo: "SSH", Tenants: table})
	apitest.Conform(t, srv.Handler(), append(freqdRoutes, freqdTenantRoutes...))
	apitest.ConformIngest(t, srv.Handler(), "/v1/t/demo/ingest")
	apitest.ConformMetrics(t, srv.Handler(),
		"freq_tenants", "freq_tenants_resident", "freq_tenants_evictions_total",
		"freq_tenants_slab_bytes")
}

func TestFreqmergeConformance(t *testing.T) {
	routes := []apitest.Route{
		{Method: http.MethodGet, Path: "/topk", Aliases: []string{"/topk"}},
		{Method: http.MethodGet, Path: "/estimate", Aliases: []string{"/estimate"}},
		{Method: http.MethodGet, Path: "/summary", Aliases: []string{"/summary"}},
		{Method: http.MethodGet, Path: "/stats", Aliases: []string{"/stats"}},
		{Method: http.MethodGet, Path: "/metrics"},
		{Method: http.MethodPost, Path: "/refresh", Aliases: []string{"/refresh"}},
		// POST /ingest answers 501 by design — present, enveloped, not a 404.
		{Method: http.MethodPost, Path: "/ingest", Aliases: []string{"/ingest"}},
	}

	// A coordinator with merged data, so GET /summary exports instead of
	// 404ing "no merged summary yet".
	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	target.UpdateBatch([]core.Item{1, 1, 2})
	nodeSrv := serve.NewServer(serve.Options{Target: target, Algo: "SSH"})
	node := httptest.NewServer(nodeSrv.Handler())
	defer node.Close()

	coord, err := cluster.New(cluster.Options{
		Nodes:        []string{node.URL},
		MergeEncoded: streamfreq.MergeEncoded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.PullAll(context.Background())
	apitest.Conform(t, coord.Handler(), routes)
	apitest.ConformMetrics(t, coord.Handler(),
		"freq_pull_seconds", "freq_merges_total", "freq_merged_n",
		"freq_cluster_nodes", "freq_merge_age_seconds")
}

func TestFreqmergeTenantConformance(t *testing.T) {
	routes := []apitest.Route{
		{Method: http.MethodGet, Path: "/topk", Aliases: []string{"/topk"}},
		{Method: http.MethodGet, Path: "/stats", Aliases: []string{"/stats"}},
		{Method: http.MethodGet, Path: "/metrics"},
		{Method: http.MethodGet, Path: "/t/demo/topk"},
		{Method: http.MethodGet, Path: "/t/demo/estimate"},
		{Method: http.MethodGet, Path: "/tenants"},
	}

	table := newDemoTable(t)
	nodeSrv := serve.NewServer(serve.Options{Target: table, Algo: "SSH", Tenants: table})
	node := httptest.NewServer(nodeSrv.Handler())
	defer node.Close()

	coord, err := cluster.New(cluster.Options{
		Nodes:        []string{node.URL},
		TenantMerge:  true,
		MergeEncoded: streamfreq.MergeEncoded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.PullAll(context.Background())
	apitest.Conform(t, coord.Handler(), routes)
	apitest.ConformMetrics(t, coord.Handler(),
		"freq_pull_seconds", "freq_merges_total", "freq_cluster_nodes")
}

func TestFreqrouterConformance(t *testing.T) {
	routes := []apitest.Route{
		{Method: http.MethodPost, Path: "/ingest", Aliases: []string{"/ingest"}},
		{Method: http.MethodGet, Path: "/stats", Aliases: []string{"/stats"}},
		{Method: http.MethodGet, Path: "/metrics"},
		{Method: http.MethodGet, Path: "/shardmap", Aliases: []string{"/shardmap"}},
		{Method: http.MethodPost, Path: "/probe", Aliases: []string{"/probe"}},
	}

	target := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	nodeSrv := serve.NewServer(serve.Options{Target: target, Algo: "SSH"})
	node := httptest.NewServer(nodeSrv.Handler())
	defer node.Close()

	rt, err := router.New(router.Options{
		Shards: []router.ShardConfig{{ID: "s0", Replicas: []string{node.URL}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	apitest.Conform(t, rt.Handler(), routes)
	apitest.ConformIngest(t, rt.Handler(), "/v1/ingest")
	apitest.ConformIngest(t, rt.Handler(), "/ingest")
	apitest.ConformMetrics(t, rt.Handler(),
		"freq_router_shard_routed_items_total", "freq_router_shard_shed_items_total",
		"freq_router_replicas_up", "freq_router_replica_restarts_total",
		"freq_http_request_seconds", "freq_uptime_seconds")
}

// TestFreqdRichQueryConformance runs the node contract with the rich
// query routes live: a CMH hierarchy answers hhh, range, and quantile,
// so all three must conform (registered under /v1, 405+Allow on wrong
// method, enveloped errors).
func TestFreqdRichQueryConformance(t *testing.T) {
	target := core.NewConcurrent(streamfreq.MustNew("CMH", 0.01, 1)).ServeSnapshots(0)
	target.UpdateBatch([]core.Item{1, 2, 3})
	srv := serve.NewServer(serve.Options{Target: target, Algo: "CMH"})
	apitest.Conform(t, srv.Handler(), append(freqdRoutes, richQueryRoutes...))
}

// TestFreqdGKConformance: a GK quantile node serves the full flat
// surface plus range and quantile; hhh stays a 404 (probed in
// TestRichQueryErrors, not here — Conform reads 404 as "unrouted").
func TestFreqdGKConformance(t *testing.T) {
	gk, err := streamfreq.NewQuantileForPhi(0.02)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewConcurrent(gk).ServeSnapshots(0)
	target.UpdateBatch([]core.Item{1, 2, 3})
	srv := serve.NewServer(serve.Options{Target: target, Algo: "GK"})
	routes := append(append([]apitest.Route{}, freqdRoutes...),
		apitest.Route{Method: http.MethodGet, Path: "/range"},
		apitest.Route{Method: http.MethodGet, Path: "/quantile"},
	)
	apitest.Conform(t, srv.Handler(), routes)
}

// TestFreqmergeRichQueryConformance: the coordinator over a CMH node
// serves the identical rich query surface — merged views carry the same
// capabilities the node summaries do.
func TestFreqmergeRichQueryConformance(t *testing.T) {
	routes := append([]apitest.Route{
		{Method: http.MethodGet, Path: "/topk", Aliases: []string{"/topk"}},
		{Method: http.MethodGet, Path: "/estimate", Aliases: []string{"/estimate"}},
		{Method: http.MethodGet, Path: "/summary", Aliases: []string{"/summary"}},
		{Method: http.MethodGet, Path: "/stats", Aliases: []string{"/stats"}},
		{Method: http.MethodPost, Path: "/refresh", Aliases: []string{"/refresh"}},
	}, richQueryRoutes...)

	target := core.NewConcurrent(streamfreq.MustNew("CMH", 0.01, 1)).ServeSnapshots(0)
	target.UpdateBatch([]core.Item{1, 1, 2})
	nodeSrv := serve.NewServer(serve.Options{Target: target, Algo: "CMH"})
	node := httptest.NewServer(nodeSrv.Handler())
	defer node.Close()

	coord, err := cluster.New(cluster.Options{
		Nodes:        []string{node.URL},
		MergeEncoded: streamfreq.MergeEncoded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.PullAll(context.Background())
	apitest.Conform(t, coord.Handler(), routes)
}

// TestRichQueryErrors pins the error half of the rich-query contract on
// node and coordinator alike: an incapable algorithm is an enveloped
// 404 (the resource does not exist on this server — not a 400, the
// request was fine), and bad parameters on a capable one are enveloped
// 400s.
func TestRichQueryErrors(t *testing.T) {
	ssh := core.NewConcurrent(streamfreq.MustNew("SSH", 0.01, 1)).ServeSnapshots(0)
	ssh.UpdateBatch([]core.Item{1, 2, 3})
	sshSrv := serve.NewServer(serve.Options{Target: ssh, Algo: "SSH"}).Handler()

	cmh := core.NewConcurrent(streamfreq.MustNew("CMH", 0.01, 1)).ServeSnapshots(0)
	cmh.UpdateBatch([]core.Item{1, 2, 3})
	cmhSrv := serve.NewServer(serve.Options{Target: cmh, Algo: "CMH"}).Handler()

	node := httptest.NewServer(sshSrv)
	defer node.Close()
	coord, err := cluster.New(cluster.Options{
		Nodes:        []string{node.URL},
		MergeEncoded: streamfreq.MergeEncoded,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.PullAll(context.Background())
	coordSrv := coord.Handler()

	cases := []struct {
		name     string
		h        http.Handler
		path     string
		status   int
		wantCode string
	}{
		// Capability 404s: the frequency-only node, and the coordinator
		// whose merged view is that same incapable summary.
		{"ssh-hhh", sshSrv, "/v1/hhh", http.StatusNotFound, "not_found"},
		{"ssh-range", sshSrv, "/v1/range?lo=0&hi=9", http.StatusNotFound, "not_found"},
		{"ssh-quantile", sshSrv, "/v1/quantile?q=0.5", http.StatusNotFound, "not_found"},
		{"coord-ssh-hhh", coordSrv, "/v1/hhh", http.StatusNotFound, "not_found"},
		{"coord-ssh-quantile", coordSrv, "/v1/quantile?q=0.5", http.StatusNotFound, "not_found"},
		// Parameter 400s on a capable summary.
		{"hhh-bad-phi", cmhSrv, "/v1/hhh?phi=2", http.StatusBadRequest, "bad_request"},
		{"hhh-bad-threshold", cmhSrv, "/v1/hhh?threshold=-1", http.StatusBadRequest, "bad_request"},
		{"range-missing", cmhSrv, "/v1/range", http.StatusBadRequest, "bad_request"},
		{"range-inverted", cmhSrv, "/v1/range?lo=9&hi=1", http.StatusBadRequest, "bad_request"},
		{"range-garbage", cmhSrv, "/v1/range?lo=abc&hi=9", http.StatusBadRequest, "bad_request"},
		{"quantile-missing", cmhSrv, "/v1/quantile", http.StatusBadRequest, "bad_request"},
		{"quantile-out-of-range", cmhSrv, "/v1/quantile?q=1.5", http.StatusBadRequest, "bad_request"},
		// Horizon errors: malformed is the client's 400; a well-formed
		// horizon on a summary with none configured is a 404.
		{"horizon-garbage", cmhSrv, "/v1/topk?horizon=soon", http.StatusBadRequest, "bad_request"},
		{"horizon-unbacked", cmhSrv, "/v1/hhh?horizon=1h", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			w := httptest.NewRecorder()
			tc.h.ServeHTTP(w, req)
			resp := w.Result()
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("GET %s: status %d, want %d (%s)", tc.path, resp.StatusCode, tc.status, body)
			}
			var env struct {
				Error struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("GET %s: body is not the error envelope: %v", tc.path, err)
			}
			if env.Error.Code != tc.wantCode || env.Error.Message == "" {
				t.Fatalf("GET %s: envelope code %q (message %q), want %q",
					tc.path, env.Error.Code, env.Error.Message, tc.wantCode)
			}
		})
	}
}

// newDemoTable builds a tenant table with the "demo" and default
// namespaces populated, so wildcard routes have a live target.
func newDemoTable(t *testing.T) *tenant.Table {
	t.Helper()
	table, err := tenant.NewTable(tenant.Options{DefaultPhi: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := table.IngestBatch("demo", []core.Item{7, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := table.IngestBatch("", []core.Item{1, 2}); err != nil {
		t.Fatal(err)
	}
	return table
}
