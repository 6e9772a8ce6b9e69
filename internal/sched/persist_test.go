package sched

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/resultcache"
)

// openBackedCache builds a store-backed cache over dir, as bpserved and
// the batch runners do.
func openBackedCache(t *testing.T, dir string) *resultcache.Cache {
	t.Helper()
	store, err := cachestore.Open(dir, cachestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return resultcache.NewWith(resultcache.Config{MaxEntries: 128, Store: store})
}

// TestWarmRestartServesStudyFromDisk is the persistence acceptance test:
// a study computed into a cache directory is served by a fresh process
// (fresh cache + reopened store) with zero recomputed units and a result
// deep-equal — and summary byte-identical — to the cold run's.
func TestWarmRestartServesStudyFromDisk(t *testing.T) {
	req := testRequest(t)
	dir := t.TempDir()
	ctx := context.Background()

	cold := openBackedCache(t, dir)
	want, err := Run(ctx, req, Options{Workers: 4, Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil { // flush write-behinds, as a shutdown does
		t.Fatal(err)
	}

	warm := openBackedCache(t, dir)
	defer warm.Close()
	got, err := Run(ctx, req, Options{Workers: 4, Cache: warm})
	if err != nil {
		t.Fatal(err)
	}

	st := warm.Stats()
	if st.Puts != 0 {
		t.Errorf("warm run recomputed %d units", st.Puts)
	}
	if st.DiskHits == 0 {
		t.Errorf("warm run never touched the store: %+v", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("disk-served StudyResult diverges from the cold run")
	}
	coldSum, _ := json.Marshal(want.Summarise())
	warmSum, _ := json.Marshal(got.Summarise())
	if string(coldSum) != string(warmSum) {
		t.Errorf("summaries differ:\ncold: %s\nwarm: %s", coldSum, warmSum)
	}
}

// TestWarmRestartSharesDiscoveryUnits checks unit-level (not just
// whole-study) persistence: a larger discovery after a restart reuses the
// earlier runs from disk and computes only the new ones.
func TestWarmRestartSharesDiscoveryUnits(t *testing.T) {
	base := testRequest(t)
	dir := t.TempDir()
	ctx := context.Background()

	discover := func(runs int, cache *resultcache.Cache) []core.BarrierPointSet {
		req := discoveryRequest(base)
		req.Discovery.Runs = runs
		out := executeOne(t, ctx, req, Options{Workers: 4, Cache: cache}, nil)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		return out.Sets
	}
	cold := openBackedCache(t, dir)
	coldSets := discover(3, cold)
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	warm := openBackedCache(t, dir)
	defer warm.Close()
	warmSets := discover(5, warm)

	st := warm.Stats()
	if st.DiskHits != 3 {
		t.Errorf("disk hits = %d, want the 3 persisted runs", st.DiskHits)
	}
	if st.Puts != 2 {
		t.Errorf("computed units = %d, want only the 2 new runs", st.Puts)
	}
	if !reflect.DeepEqual(coldSets, warmSets[:3]) {
		t.Error("disk-served discovery runs diverge from the cold run")
	}
}

// TestWarmRestartSharesMemoryTrace: a collection's memory trace persists
// through the cachestore codec, so after a restart a sibling collection
// (the vectorised variant, same program and hierarchy) replays it from
// disk instead of simulating, and matches core.Collect exactly.
func TestWarmRestartSharesMemoryTrace(t *testing.T) {
	base := testRequest(t)
	dir := t.TempDir()
	ctx := context.Background()
	cfg := base.Config.Collections()[0]

	cold := openBackedCache(t, dir)
	if _, err := Collect(ctx, CollectRequest{App: base.App, Build: base.Build, Config: cfg}, Options{Cache: cold}); err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Variant.Vectorised = !cfg.Variant.Vectorised
	want, err := core.Collect(base.Build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := openBackedCache(t, dir)
	defer warm.Close()
	got, err := Collect(ctx, CollectRequest{App: base.App, Build: base.Build, Config: cfg}, Options{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	// The sibling's collection is new; its trace comes from disk.
	if st := warm.Stats(); st.DiskHits != 1 || st.Puts != 1 {
		t.Errorf("disk hits/puts = %d/%d, want the persisted trace and the new collection", st.DiskHits, st.Puts)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("collection replayed from a disk-served trace diverges from core.Collect")
	}
}
