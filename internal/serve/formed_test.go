package serve

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"predication/internal/asm"
	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
)

// TestFormedLayerCounts: a cold request counts one miss in each layer it
// passes, and a later target of the same kernel and model family is
// scheduled from the formed program the first one left: the guard model
// from the fully predicated form itself, the conditional-move model from
// a form derived from it.
func TestFormedLayerCounts(t *testing.T) {
	s := newTest(t, Config{})
	counters := func() map[string]int64 { return s.Registry().Snapshot().Counters }
	steps := []struct {
		url  string
		want map[string]int64
	}{
		{cellURL, map[string]int64{
			"serve_executions": 1, "serve_artifact_cache_misses": 1,
			"serve_formed_cache_misses": 1, "serve_formed_cache_hits": 0, "serve_formations": 1}},
		{"/v1/cell?kernel=wc&model=full&machine=issue4-br1", map[string]int64{
			"serve_executions": 2, "serve_artifact_cache_misses": 2,
			"serve_formed_cache_misses": 1, "serve_formed_cache_hits": 1, "serve_formations": 1}},
		{"/v1/cell?kernel=wc&model=guard&machine=issue8-br2", map[string]int64{
			"serve_executions": 3, "serve_artifact_cache_misses": 3,
			"serve_formed_cache_misses": 1, "serve_formed_cache_hits": 2, "serve_formations": 1}},
		// The conditional-move form misses, and derives from the cached
		// fully predicated form (a hit).
		{"/v1/cell?kernel=wc&model=cmov&machine=issue8-br1", map[string]int64{
			"serve_executions": 4, "serve_artifact_cache_misses": 4,
			"serve_formed_cache_misses": 2, "serve_formed_cache_hits": 3, "serve_formations": 2}},
	}
	for _, st := range steps {
		if rec := get(t, s, st.url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", st.url, rec.Code, rec.Body.String())
		}
		got := counters()
		for name, want := range st.want {
			if got[name] != want {
				t.Errorf("after %s: %s = %d, want %d", st.url, name, got[name], want)
			}
		}
	}
	if n := s.formed.entries(); n != 2 {
		t.Errorf("formed cache holds %d programs, want 2 (full, cmov)", n)
	}
}

// TestFormedSharedAcrossTargets: concurrent cold requests for eqn's fully
// predicated code on all four scheduling targets share one formation, and
// each listing is the one TestGoldenAsm pins.  Run under -race, this is
// the check that the targets schedule one formed program concurrently
// without writing to it.
func TestFormedSharedAcrossTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and measures eqn four times")
	}
	golden := goldenAsmSums(t)
	targets := []machine.Config{machine.Issue1(), machine.Issue4Br1(), machine.Issue8Br1(), machine.Issue8Br2()}
	s := newTest(t, Config{Workers: len(targets)})
	var wg sync.WaitGroup
	for _, mc := range targets {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			rec := get(t, s, "/v1/cell?kernel=eqn&model=full&machine="+name)
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, rec.Code, rec.Body.String())
			}
		}(mc.Name)
	}
	wg.Wait()
	if n := s.Registry().Counter("serve_formations").Value(); n != 1 {
		t.Errorf("serve_formations = %d for four targets of one form, want 1", n)
	}
	for _, mc := range targets {
		v, ok := s.artifacts.Peek(ArtifactKey("eqn", core.FullPred, mc))
		if !ok {
			t.Fatalf("no artifact cached for %s", mc.Name)
		}
		key := "eqn full " + mc.Name
		if got := listingSum(v.(*experiments.CellArtifact).Compiled); got != golden[key] {
			t.Errorf("%s: listing sha256 %s, golden %q", key, got, golden[key])
		}
	}
}

// goldenAsmSums reads the compiler golden (internal/core/testdata/
// golden_asm.txt): "kernel model target sha256 ..." per line, keyed by
// the first three fields.
func goldenAsmSums(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../core/testdata/golden_asm.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) >= 4 && !strings.HasPrefix(fs[0], "#") {
			sums[strings.Join(fs[:3], " ")] = fs[3]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

// listingSum is the golden file's digest of one listing.
func listingSum(c *core.Compiled) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(asm.Format(c.Prog))))
}
