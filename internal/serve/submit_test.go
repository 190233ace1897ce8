package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predication/internal/core"
)

// minimalProgram is the smallest useful submission: computes into the
// checksum word and halts.
const minimalProgram = `.mem 64
.entry 0
func F0 main:
B0:
	mov r1, 37
	store 0, 8, r1
	halt
`

// spinnerProgram never halts: the step-quota buster.
const spinnerProgram = `.mem 64
.entry 0
func F0 main:
B0:
	jump B0
`

func post(t *testing.T, s *Server, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func submitBody(t *testing.T, rec *httptest.ResponseRecorder) SubmitResponse {
	t.Helper()
	var resp SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response does not parse: %v\n%s", err, rec.Body.String())
	}
	return resp
}

// rejectionBody decodes a layer-tagged refusal.
func rejectionBody(t *testing.T, rec *httptest.ResponseRecorder) (msg, layer string) {
	t.Helper()
	var resp struct {
		Error string `json:"error"`
		Layer string `json:"layer"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("rejection does not parse: %v\n%s", err, rec.Body.String())
	}
	return resp.Error, resp.Layer
}

// submitServer builds a server whose rate limiter never interferes with
// the scenario under test.
func submitServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.SubmitRate == 0 {
		cfg.SubmitRate = 1000
		cfg.SubmitBurst = 1000
	}
	return newTest(t, cfg)
}

// TestSubmitEndpoint: a valid program measures under all four models
// with equal checksums, full breakdowns, and internally consistent IPC —
// the same invariants the kernel cells guarantee.
func TestSubmitEndpoint(t *testing.T) {
	s := submitServer(t, Config{})
	rec := post(t, s, "/v1/submit", minimalProgram)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := submitBody(t, rec)
	if len(resp.Program) != 64 {
		t.Errorf("program digest %q is not a sha256 hex", resp.Program)
	}
	if resp.Instrs != 3 {
		t.Errorf("instrs = %d, want 3", resp.Instrs)
	}
	if len(resp.Models) != 4 {
		t.Fatalf("got %d models, want 4", len(resp.Models))
	}
	for _, m := range resp.Models {
		if m.Checksum != resp.Models[0].Checksum {
			t.Errorf("model %s checksum %#x differs from %s's %#x",
				m.Model, m.Checksum, resp.Models[0].Model, resp.Models[0].Checksum)
		}
		if m.Stats.Cycles <= 0 {
			t.Errorf("model %s: empty stats", m.Model)
		}
		if want := m.Stats.IPC(); m.IPC != want {
			t.Errorf("model %s: ipc %v != stats-derived %v", m.Model, m.IPC, want)
		}
		if m.Breakdown == nil {
			t.Errorf("model %s: no breakdown", m.Model)
		}
		if m.Breakdown != nil && m.Breakdown.Total() != m.Stats.Cycles {
			t.Errorf("model %s: breakdown total %d != cycles %d",
				m.Model, m.Breakdown.Total(), m.Stats.Cycles)
		}
	}
}

// TestSubmitSingleModel: ?model= narrows the measurement to one model.
func TestSubmitSingleModel(t *testing.T) {
	s := submitServer(t, Config{})
	rec := post(t, s, "/v1/submit?model=full", minimalProgram)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := submitBody(t, rec)
	if len(resp.Models) != 1 || resp.Models[0].Model != core.FullPred.String() {
		t.Errorf("models = %+v, want exactly [%s]", resp.Models, core.FullPred)
	}
}

// TestSubmitCacheHit is the satellite cache-interaction check: the same
// program twice is a byte-identical result-cache hit, and a program
// differing only in whitespace and comments shares the canonical key —
// no second compile.
func TestSubmitCacheHit(t *testing.T) {
	s := submitServer(t, Config{})
	executions := 0
	s.computeHook = func(string) { executions++ }

	cold := post(t, s, "/v1/submit", minimalProgram)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: %d: %s", cold.Code, cold.Body.String())
	}
	if h := cold.Header().Get("X-Cache"); h != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", h)
	}

	warm := post(t, s, "/v1/submit", minimalProgram)
	if h := warm.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", h)
	}
	if warm.Body.String() != cold.Body.String() {
		t.Error("cached body differs from computed body")
	}

	// Same program modulo formatting: leading comment, re-indentation,
	// trailing blank lines.  Canonicalization makes it the same key.
	noisy := "; resubmitted by another tenant\n" +
		strings.ReplaceAll(minimalProgram, "\tmov r1, 37", "     mov   r1,  37") + "\n\n"
	variant := post(t, s, "/v1/submit", noisy)
	if variant.Code != http.StatusOK {
		t.Fatalf("variant: %d: %s", variant.Code, variant.Body.String())
	}
	if h := variant.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("canonically-equal variant X-Cache = %q, want hit", h)
	}
	if variant.Body.String() != cold.Body.String() {
		t.Error("canonically-equal variant returned different bytes")
	}
	if executions != 1 {
		t.Errorf("executions = %d, want 1 (variant and repeat must not recompute)", executions)
	}
}

// TestSubmitGangFill: one submission fills the sibling simulator
// configurations of its scheduling target, so the cache-variant machine
// is an immediate hit.
func TestSubmitGangFill(t *testing.T) {
	s := submitServer(t, Config{})
	if rec := post(t, s, "/v1/submit?machine=issue8-br1", minimalProgram); rec.Code != http.StatusOK {
		t.Fatalf("base: %d: %s", rec.Code, rec.Body.String())
	}
	sibling := post(t, s, "/v1/submit?machine=issue8-br1-64k", minimalProgram)
	if sibling.Code != http.StatusOK {
		t.Fatalf("sibling: %d: %s", sibling.Code, sibling.Body.String())
	}
	if h := sibling.Header().Get("X-Cache"); h != "hit" {
		t.Errorf("sibling X-Cache = %q, want hit", h)
	}
	if got := s.reg.Counter("submit_gang_fill").Value(); got <= 0 {
		t.Errorf("submit_gang_fill = %d, want > 0", got)
	}
	if resp := submitBody(t, sibling); resp.Machine.Name != "issue8-br1-64k" {
		t.Errorf("sibling body reports machine %q", resp.Machine.Name)
	}
}

// TestSubmitRejections: each hostile submission is refused with its
// documented status and layer tag, counted in the registry, and the
// server stays healthy throughout — no rejection is a 500.
func TestSubmitRejections(t *testing.T) {
	s := submitServer(t, Config{
		MaxSubmitBytes: 4 << 10,
		MaxSubmitSteps: 10_000,
	})
	cases := []struct {
		name   string
		url    string
		body   string
		status int
		layer  string
	}{
		{"garbage", "/v1/submit", "not a program at all", 400, "parse"},
		{"empty", "/v1/submit", "", 400, "parse"},
		{"oversized", "/v1/submit", strings.Repeat("; padding\n", 1<<10), 413, "body"},
		{"mem quota", "/v1/submit", ".mem 99999999\nfunc F0 m:\nB0:\n\thalt\n", 413, "limits"},
		{"step quota", "/v1/submit", spinnerProgram, 413, "quota"},
		{"trap", "/v1/submit?model=superblock",
			".mem 64\n.entry 0\nfunc F0 main:\nB0:\n\tmov r1, 0\n\tdiv r2, r1, r1\n\thalt\n", 422, "execute"},
		{"bad machine", "/v1/submit?machine=issue9", "", 400, ""},
		{"window past the bound", "/v1/submit?window=4097", "", 400, ""},
		{"bad model", "/v1/submit?model=mystery", "", 400, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := s.reg.Counter("submit_rejected_" + c.layer).Value()
			rec := post(t, s, c.url, c.body)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.status, rec.Body.String())
			}
			msg, layer := rejectionBody(t, rec)
			if layer != c.layer {
				t.Errorf("layer %q, want %q (%s)", layer, c.layer, msg)
			}
			if strings.ContainsRune(msg, '\n') {
				t.Errorf("rejection is not one line: %q", msg)
			}
			if c.layer != "" {
				if after := s.reg.Counter("submit_rejected_" + c.layer).Value(); after != before+1 {
					t.Errorf("submit_rejected_%s = %d, want %d", c.layer, after, before+1)
				}
			}
		})
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("server unhealthy after hostile submissions: %d", rec.Code)
	}
	if rec := get(t, s, cellURL); rec.Code != http.StatusOK {
		t.Errorf("/v1/cell unavailable after hostile submissions: %d", rec.Code)
	}
}

// TestSubmitRateLimit: a client exhausting its burst is refused with 429,
// layer "rate", and a Retry-After hint; kernel endpoints stay unlimited.
func TestSubmitRateLimit(t *testing.T) {
	s := newTest(t, Config{SubmitRate: 0.001, SubmitBurst: 2})
	for i := 0; i < 2; i++ {
		if rec := post(t, s, "/v1/submit", minimalProgram); rec.Code != http.StatusOK {
			t.Fatalf("request %d inside burst refused: %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := post(t, s, "/v1/submit", minimalProgram)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if _, layer := rejectionBody(t, rec); layer != "rate" {
		t.Errorf("layer %q, want rate", layer)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.reg.Counter("submit_rejected_rate").Value(); got != 1 {
		t.Errorf("submit_rejected_rate = %d, want 1", got)
	}
	// The kernel path is not rate limited.
	for i := 0; i < 5; i++ {
		if rec := get(t, s, cellURL); rec.Code != http.StatusOK {
			t.Fatalf("kernel request %d affected by submission limiter: %d", i, rec.Code)
		}
	}
}

// TestSubmitMetricsExposed: the submission counters appear in /metrics.
func TestSubmitMetricsExposed(t *testing.T) {
	s := submitServer(t, Config{})
	post(t, s, "/v1/submit", minimalProgram)
	post(t, s, "/v1/submit", "garbage")
	rec := get(t, s, "/metrics")
	for _, want := range []string{"submit_requests", "submit_executions", "submit_rejected_parse"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestSubmitTimeoutParam: a bad timeout is a 400 before any compute.
func TestSubmitTimeoutParam(t *testing.T) {
	s := submitServer(t, Config{})
	rec := post(t, s, "/v1/submit?timeout=banana", minimalProgram)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestSubmitDraining: a draining server refuses submissions with 503
// like every other compute endpoint.
func TestSubmitDraining(t *testing.T) {
	s := submitServer(t, Config{})
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	rec := post(t, s, "/v1/submit", minimalProgram)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", rec.Code)
	}
}
