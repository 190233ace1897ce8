package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// The disk-layer tests: a daemon restart (a fresh Server over the same
// -store-dir) keeps the content-addressed caches warm.  "Restart" here
// is literal for everything that matters — the in-memory caches are
// gone, only the files under StoreDir carry over — which is what the
// benchmark's serve_warm workload (cmd/predperf) measures at the
// process level.

// storeConfig is a daemon with persistence rooted at dir.
func storeConfig(dir string) Config {
	return Config{StoreDir: dir, SubmitRate: 1000, SubmitBurst: 1000}
}

// TestDiskWarmRestart: a cell computed before the restart is served from
// disk after it — byte-identical, stamped X-Cache: disk — and the disk
// read promotes the body into memory so the next request is a plain hit.
func TestDiskWarmRestart(t *testing.T) {
	dir := t.TempDir()

	s1 := newTest(t, storeConfig(dir))
	cold := get(t, s1, cellURL)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d: %s", cold.Code, cold.Body.String())
	}
	if h := cold.Header().Get("X-Cache"); h != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", h)
	}

	// The restart: a new server, empty memory, same store directory.
	s2 := newTest(t, storeConfig(dir))
	executions := 0
	s2.computeHook = func(string) { executions++ }
	warm := get(t, s2, cellURL)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: %d: %s", warm.Code, warm.Body.String())
	}
	if h := warm.Header().Get("X-Cache"); h != "disk" {
		t.Errorf("warm X-Cache = %q, want disk", h)
	}
	if warm.Body.String() != cold.Body.String() {
		t.Error("disk-served body differs from the computed one")
	}
	if executions != 0 {
		t.Errorf("restart recomputed %d times, want 0", executions)
	}

	// Promotion: the disk read filled the memory LRU.
	again := get(t, s2, cellURL)
	if h := again.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("post-promotion X-Cache = %q, want hit", h)
	}
}

// TestDiskGangFillPersists: one computed cell persists every sibling
// configuration's body, so after a restart the sibling is a disk hit
// too — the gang-fill contract survives the process.
func TestDiskGangFillPersists(t *testing.T) {
	dir := t.TempDir()
	s1 := newTest(t, storeConfig(dir))
	if rec := get(t, s1, cellURL); rec.Code != http.StatusOK {
		t.Fatalf("base: %d: %s", rec.Code, rec.Body.String())
	}

	s2 := newTest(t, storeConfig(dir))
	sibling := get(t, s2, "/v1/cell?kernel=wc&model=full&machine=issue8-br1-64k")
	if sibling.Code != http.StatusOK {
		t.Fatalf("sibling: %d: %s", sibling.Code, sibling.Body.String())
	}
	if h := sibling.Header().Get("X-Cache"); h != "disk" {
		t.Errorf("sibling X-Cache = %q, want disk", h)
	}
}

// TestDiskArtifactReuse: when the result records are gone but the
// artifact records survive, the restarted daemon recomputes the body
// from the decoded artifact instead of recompiling — the artifact
// namespace is a cache layer of its own, not a side effect.
func TestDiskArtifactReuse(t *testing.T) {
	dir := t.TempDir()
	s1 := newTest(t, storeConfig(dir))
	if rec := get(t, s1, cellURL); rec.Code != http.StatusOK {
		t.Fatalf("cold: %d: %s", rec.Code, rec.Body.String())
	}
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		t.Fatal(err)
	}

	s2 := newTest(t, storeConfig(dir))
	rec := get(t, s2, cellURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("recompute: %d: %s", rec.Code, rec.Body.String())
	}
	if h := rec.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("X-Cache = %q, want miss (results were deleted)", h)
	}
	if hits := s2.reg.Counter("store_artifacts_disk_hits").Value(); hits <= 0 {
		t.Errorf("store_artifacts_disk_hits = %d, want > 0 (should decode, not recompile)", hits)
	}
}

// TestSubmitDiskPersistence: submissions persist in their own namespace
// and survive a restart the same way — and the records land under
// submit/, not in the kernel namespaces.
func TestSubmitDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1 := newTest(t, storeConfig(dir))
	cold := post(t, s1, "/v1/submit", minimalProgram)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d: %s", cold.Code, cold.Body.String())
	}

	s2 := newTest(t, storeConfig(dir))
	warm := post(t, s2, "/v1/submit", minimalProgram)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: %d: %s", warm.Code, warm.Body.String())
	}
	if h := warm.Header().Get("X-Cache"); h != "disk" {
		t.Errorf("warm X-Cache = %q, want disk", h)
	}
	if warm.Body.String() != cold.Body.String() {
		t.Error("disk-served submission differs from the computed one")
	}

	// Namespace isolation on disk: the submission wrote no kernel records.
	var health HealthResponse
	rec := get(t, s2, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz does not parse: %v\n%s", err, rec.Body.String())
	}
	if health.Store == nil {
		t.Fatal("healthz has no store section with -store-dir set")
	}
	if n := health.Store["submit_results"].Records; n <= 0 {
		t.Errorf("submit_results records = %d, want > 0", n)
	}
	if n := health.Store["results"].Records; n != 0 {
		t.Errorf("kernel results records = %d, want 0 (submissions must not write there)", n)
	}
}

// TestHealthzStoreStatus: /healthz reports all four namespaces with
// their budgets, and omits the section entirely without -store-dir.
func TestHealthzStoreStatus(t *testing.T) {
	s := newTest(t, Config{StoreDir: t.TempDir(), StoreMaxBytes: 1 << 20, SubmitStoreMaxBytes: 1 << 19})
	var health HealthResponse
	rec := get(t, s, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz does not parse: %v\n%s", err, rec.Body.String())
	}
	if health.Status != "ok" {
		t.Errorf("status = %q", health.Status)
	}
	for ns, wantMax := range map[string]int64{
		"results": 1 << 19, "artifacts": 1 << 19,
		"submit_results": 1 << 18, "submit_artifacts": 1 << 18,
	} {
		st, ok := health.Store[ns]
		if !ok {
			t.Errorf("namespace %q missing from healthz", ns)
			continue
		}
		if st.MaxBytes != wantMax {
			t.Errorf("%s max_bytes = %d, want %d", ns, st.MaxBytes, wantMax)
		}
	}

	plain := newTest(t, Config{})
	rec = get(t, plain, "/healthz")
	var bare map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &bare); err != nil {
		t.Fatalf("healthz does not parse: %v", err)
	}
	if _, ok := bare["store"]; ok {
		t.Error("healthz reports a store section without -store-dir")
	}
	if _, ok := bare["shard"]; ok {
		t.Error("healthz reports a shard section without -peers")
	}
}

// TestNewRejectsUnusableStoreDir: New surfaces an unusable store root as
// a configuration error instead of serving without persistence.
func TestNewRejectsUnusableStoreDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StoreDir: filepath.Join(file, "store")}); err == nil {
		t.Error("New accepted a store root under a regular file")
	}
}
