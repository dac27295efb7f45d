package main

import (
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"streamfreq/internal/core"
	"streamfreq/internal/persist"
	"streamfreq/internal/serve"
	"streamfreq/internal/tenant"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// build calls buildTarget with the flag defaults, varying the plane
// selectors.
func build(t *testing.T, shards, windowLen int, horizons []time.Duration, dataDir string, table *tenant.Table) (serve.Target, *persist.Store, error) {
	t.Helper()
	target, store, _, err := buildTarget(quiet, "SSH", 0.01, 1, shards, 0,
		windowLen, 8, horizons, 8, dataDir, "always", 0, table)
	if p, ok := target.(*core.Pipelined); ok {
		t.Cleanup(p.Close)
	}
	if store != nil {
		t.Cleanup(func() { store.Close() })
	}
	return target, store, err
}

// TestPlaneFollowsShardCount pins freqd's plane selection: -shards 1
// serves the single mutex, -shards N>1 the staged plane.
func TestPlaneFollowsShardCount(t *testing.T) {
	target, _, err := build(t, 1, 0, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := target.(*core.Concurrent); !ok {
		t.Fatalf("-shards 1 built %T, want *core.Concurrent", target)
	}
	target, _, err = build(t, 4, 0, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := target.(*core.Pipelined); !ok {
		t.Fatalf("-shards 4 built %T, want *core.Pipelined", target)
	}
}

// TestPipelinedPlaneIsDurable builds -shards 4 -data-dir twice over one
// directory: the first plane must log through the WAL (PersistTo), the
// second must recover what the first acknowledged.
func TestPipelinedPlaneIsDurable(t *testing.T) {
	dir := t.TempDir()
	target, store, err := build(t, 4, 0, nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := target.(*core.Pipelined); !ok || store == nil {
		t.Fatalf("-shards 4 -data-dir built %T (store %v), want a durable *core.Pipelined", target, store != nil)
	}
	items := make([]core.Item, 1000)
	for i := range items {
		items[i] = core.Item(i % 37)
	}
	target.UpdateBatch(items)
	if err := store.Close(); err != nil { // seal the log, no checkpoint
		t.Fatal(err)
	}

	again, _, err := build(t, 4, 0, nil, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := again.(*core.Pipelined)
	if !ok {
		t.Fatalf("restart built %T, want *core.Pipelined", again)
	}
	if got := p.LiveN(); got != int64(len(items)) {
		t.Fatalf("restart recovered n=%d, want %d", got, len(items))
	}
}

// TestPlaneSelectionErrors: the shard count must be a power of two,
// and the single-summary arrangements refuse sharding.
func TestPlaneSelectionErrors(t *testing.T) {
	table, err := buildTenantTable("SSH", 0.01, 0, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		shards    int
		windowLen int
		horizons  []time.Duration
		table     *tenant.Table
		want      string
	}{
		{"shards-3", 3, 0, nil, nil, "power of two"},
		{"tenants", 2, 0, nil, table, "-tenants"},
		{"window", 2, 800, nil, nil, "-window"},
		{"horizons", 2, 0, []time.Duration{time.Minute}, nil, "-horizons"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target, _, err := build(t, tc.shards, tc.windowLen, tc.horizons, "", tc.table)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("built %T with err %v, want an error naming %q", target, err, tc.want)
			}
		})
	}
}
