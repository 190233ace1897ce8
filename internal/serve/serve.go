// Package serve exposes the experiment matrix as an HTTP/JSON service:
// the simulation-as-a-service daemon behind cmd/predserved.
//
// The paper's emulation-driven methodology makes a (kernel, model,
// machine, compiler-options) cell fully deterministic, so the daemon is
// built around a content-addressed cache (see key.go) with two layers —
// compiled artifacts shared across simulator configurations, and
// rendered response bodies — plus singleflight request coalescing so N
// concurrent identical requests cost one compile+simulate execution.
// A cell miss computes through the gang simulator: the one emulation is
// measured for every simulator configuration sharing the artifact's
// scheduled code, and every sibling's rendered body enters the result
// cache at once (docs/SERVING.md, "cache-fill semantics").
// Compute is admission-controlled: a bounded worker pool with a bounded
// waiting line; an overflowing queue is refused with 429 + Retry-After,
// and every request runs under a deadline mapped onto the harness's
// fault-isolation guard (experiments.Guard, the CellTimeout semantics).
// SIGTERM handling is a graceful drain: in-flight requests complete,
// new ones are refused with 503.
//
// Endpoints (JSON):
//
//	GET  /v1/cell?kernel=wc&model=full&machine=issue8-br1[&predictor=gshare][&window=32][&timeout=30s]
//	GET  /v1/breakdown?...  — same cell, instrumented: adds the stall-cycle
//	                          breakdown and instruction mix
//	GET  /v1/figures[?kernels=wc,grep]  — the paper's figure/table set
//	POST /v1/submit  — run an untrusted .psasm program through the
//	                   admission gate (internal/submit) and measure it
//	                   under all four models; see submit.go
//	GET  /healthz   — liveness and drain state
//	GET  /metrics   — the obs.Registry in Prometheus text format
//
// The full schema and capacity knobs are documented in docs/SERVING.md.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
	"predication/internal/store"
	"predication/internal/submit"
)

// Config sizes the daemon.  The zero value of every field selects a
// sensible default (see New).
type Config struct {
	// ArtifactCacheSize bounds the compiled-artifact cache (entries), and
	// the formed-program cache beneath it likewise.  Default 64 — the full
	// 15-kernel × 4-model × 4-target matrix is 240 artifacts from 45
	// formed programs, so the default deliberately exercises eviction.
	ArtifactCacheSize int
	// ResultCacheSize bounds the rendered-response cache (entries).
	// Default 1024.
	ResultCacheSize int
	// Workers bounds concurrent compile+simulate executions.  Default
	// runtime.GOMAXPROCS(0) — the same sizing as the batch harness pool.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// beyond the ones executing.  A request arriving past Workers +
	// QueueDepth is refused with 429 + Retry-After.  Default 64.
	QueueDepth int
	// RequestTimeout is the per-request compute deadline, the serving
	// analogue of experiments.Options.CellTimeout (a request may lower it
	// with ?timeout=, never raise it).  Default 60s.
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses.  Default 1s.
	RetryAfter time.Duration
	// Registry receives the daemon's counters and histograms and backs
	// /metrics.  A fresh registry is created when nil.
	Registry *obs.Registry

	// MaxSubmitBytes caps POST /v1/submit request bodies (enforced
	// before the body is read).  Default 512 KiB.
	MaxSubmitBytes int64
	// MaxSubmitInstrs caps a submitted program's static instruction
	// count.  Default 16384.
	MaxSubmitInstrs int
	// MaxSubmitSteps is the per-submission emulation step quota (the
	// profiling run and every measurement).  Default 2M steps.
	MaxSubmitSteps int64
	// SubmitRate is the per-client token-bucket refill in submissions
	// per second; SubmitBurst is its capacity.  Defaults 5/s, burst 10.
	SubmitRate  float64
	SubmitBurst int
	// SubmitWorkers and SubmitQueueDepth size the submission-scoped
	// compute pool — separate from Workers/QueueDepth so hostile
	// submission traffic cannot starve the kernel endpoints.  Defaults:
	// half of Workers (at least 1) and 32.
	SubmitWorkers    int
	SubmitQueueDepth int

	// StoreDir roots the disk-backed content-addressed store — the
	// third cache layer (memory → disk → compute), persisted across
	// restarts and shareable between replicas on one filesystem.  Empty
	// disables persistence (the daemon behaves exactly as before).
	StoreDir string
	// StoreMaxBytes is the byte budget for the kernel namespaces
	// (compiled artifacts + rendered results, half each).  Default 1 GiB.
	StoreMaxBytes int64
	// SubmitStoreMaxBytes is the byte budget for the submission
	// namespaces — separate from StoreMaxBytes so hostile submissions
	// cannot evict kernel artifacts on disk either.  Default 256 MiB.
	SubmitStoreMaxBytes int64

	// Peers is the full replica list (base URLs, every replica gets the
	// same list) of a consistent-hash ring sharding the /v1/cell-family
	// keyspace; Self is this replica's entry in it.  Empty disables
	// sharding.  See shard.go for the routing rules.
	Peers []string
	Self  string

	// AccessLog receives one JSON line per /v1/ request
	// (obs.AccessRecord).  Nil disables access logging; request IDs and
	// Server-Timing stay on regardless.
	AccessLog io.Writer
	// TraceDir, when set, receives Chrome trace-event files for sampled
	// or slow requests, one file per request named
	// <request-id>.trace.json.  Requires TraceSample or TraceSlowMS to
	// select requests.
	TraceDir string
	// TraceSample writes a trace file for one of every TraceSample /v1/
	// requests (1 = every request, 0 = no sampling).
	TraceSample int
	// TraceSlowMS writes a trace file for every request whose wall time
	// reaches this many milliseconds (0 = no slow capture).
	TraceSlowMS int
}

// Server is the simulation service.  Create it with New; it implements
// http.Handler.
type Server struct {
	cfg       Config
	reg       *obs.Registry
	formed    *Cache // formed programs, one per (kernel, model family form)
	artifacts *Cache
	results   *Cache
	flight    group
	queue     chan struct{} // admission tokens: executing + waiting
	workers   chan struct{} // execution tokens
	mux       *http.ServeMux

	// The submission path has its own caches, worker pool, and rate
	// limiter: untrusted programs never evict kernel artifacts, fill the
	// kernel queue, or hold kernel workers (see submit.go).
	submitArtifacts *Cache
	submitResults   *Cache
	submitQueue     chan struct{}
	submitWorkers   chan struct{}
	limiter         *rateLimiter
	submitLimits    submit.Limits

	// The disk layer: four write-once namespaces under cfg.StoreDir
	// (nil when persistence is disabled).  Keys are the same SHA-256
	// digests the in-memory caches use.
	resultStore         *store.Store
	artifactStore       *store.Store
	submitResultStore   *store.Store
	submitArtifactStore *store.Store

	// The shard ring (nil when -peers is unset) and the client used to
	// forward requests to their owners.
	ring        *ring
	shardClient *http.Client

	// Request observability (trace.go): the access log (nil when off)
	// and the sampling counter for trace files.
	accessLog *obs.AccessLogger
	traceSeq  atomic.Int64

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	// computeHook, when non-nil, observes every cache-missing execution
	// with its result key (test instrumentation: coalescing and drain
	// tests count and stall executions through it).
	computeHook func(key string)
}

// New creates a server with cfg's capacity knobs (zero fields take the
// documented defaults).  It fails only on configuration that cannot be
// defaulted: an unusable StoreDir or an invalid Peers/Self replica set.
func New(cfg Config) (*Server, error) {
	if cfg.ArtifactCacheSize <= 0 {
		cfg.ArtifactCacheSize = 64
	}
	if cfg.ResultCacheSize <= 0 {
		cfg.ResultCacheSize = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.MaxSubmitBytes <= 0 {
		cfg.MaxSubmitBytes = submit.DefaultLimits().MaxBytes
	}
	if cfg.MaxSubmitInstrs <= 0 {
		cfg.MaxSubmitInstrs = submit.DefaultLimits().MaxInstrs
	}
	if cfg.MaxSubmitSteps <= 0 {
		cfg.MaxSubmitSteps = submit.DefaultLimits().MaxSteps
	}
	if cfg.SubmitRate <= 0 {
		cfg.SubmitRate = 5
	}
	if cfg.SubmitBurst <= 0 {
		cfg.SubmitBurst = 10
	}
	if cfg.SubmitWorkers <= 0 {
		cfg.SubmitWorkers = max(1, cfg.Workers/2)
	}
	if cfg.SubmitQueueDepth <= 0 {
		cfg.SubmitQueueDepth = 32
	}
	if cfg.StoreMaxBytes <= 0 {
		cfg.StoreMaxBytes = 1 << 30
	}
	if cfg.SubmitStoreMaxBytes <= 0 {
		cfg.SubmitStoreMaxBytes = 256 << 20
	}
	if cfg.TraceSample < 0 || cfg.TraceSlowMS < 0 {
		return nil, fmt.Errorf("serve: trace sample and slow threshold must be non-negative")
	}
	if cfg.TraceDir == "" && (cfg.TraceSample > 0 || cfg.TraceSlowMS > 0) {
		return nil, fmt.Errorf("serve: trace sampling requires a trace directory")
	}
	if cfg.TraceDir != "" {
		if cfg.TraceSample == 0 && cfg.TraceSlowMS == 0 {
			return nil, fmt.Errorf("serve: trace directory set but neither sampling nor a slow threshold selects requests")
		}
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: trace directory: %w", err)
		}
	}
	s := &Server{
		cfg:       cfg,
		reg:       cfg.Registry,
		formed:    NewCache("serve_formed_cache", cfg.ArtifactCacheSize, cfg.Registry),
		artifacts: NewCache("serve_artifact_cache", cfg.ArtifactCacheSize, cfg.Registry),
		results:   NewCache("serve_result_cache", cfg.ResultCacheSize, cfg.Registry),
		queue:     make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		workers:   make(chan struct{}, cfg.Workers),
		mux:       http.NewServeMux(),

		submitArtifacts: NewCache("serve_submit_artifact_cache", cfg.ArtifactCacheSize, cfg.Registry),
		submitResults:   NewCache("serve_submit_result_cache", cfg.ResultCacheSize, cfg.Registry),
		submitQueue:     make(chan struct{}, cfg.SubmitWorkers+cfg.SubmitQueueDepth),
		submitWorkers:   make(chan struct{}, cfg.SubmitWorkers),
		limiter:         newRateLimiter(cfg.SubmitRate, cfg.SubmitBurst),
		submitLimits: submit.Limits{
			MaxBytes:  cfg.MaxSubmitBytes,
			MaxInstrs: cfg.MaxSubmitInstrs,
			MaxSteps:  cfg.MaxSubmitSteps,
		}.WithDefaults(),

		accessLog: obs.NewAccessLogger(cfg.AccessLog),
	}
	if cfg.StoreDir != "" {
		// Four write-once namespaces: kernel artifacts/results budgeted
		// together, submission artifacts/results budgeted separately so
		// hostile traffic cannot evict kernel records on disk.
		for _, ns := range []struct {
			dst  **store.Store
			sub  string
			name string
			max  int64
		}{
			{&s.resultStore, "results", "store_results", cfg.StoreMaxBytes / 2},
			{&s.artifactStore, "artifacts", "store_artifacts", cfg.StoreMaxBytes / 2},
			{&s.submitResultStore, filepath.Join("submit", "results"), "store_submit_results", cfg.SubmitStoreMaxBytes / 2},
			{&s.submitArtifactStore, filepath.Join("submit", "artifacts"), "store_submit_artifacts", cfg.SubmitStoreMaxBytes / 2},
		} {
			st, err := store.Open(filepath.Join(cfg.StoreDir, ns.sub), store.Options{
				MaxBytes: ns.max, Name: ns.name, Registry: cfg.Registry,
			})
			if err != nil {
				return nil, err
			}
			*ns.dst = st
		}
	}
	if len(cfg.Peers) > 0 {
		r, err := newRing(cfg.Self, cfg.Peers)
		if err != nil {
			return nil, err
		}
		s.ring = r
		s.shardClient = newShardClient(cfg.RequestTimeout)
	}
	s.mux.HandleFunc("GET /v1/cell", func(w http.ResponseWriter, r *http.Request) {
		s.handleCell(w, r, false)
	})
	s.mux.HandleFunc("GET /v1/breakdown", func(w http.ResponseWriter, r *http.Request) {
		s.handleCell(w, r, true)
	})
	s.mux.HandleFunc("GET /v1/figures", s.handleFigures)
	s.mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Registry returns the registry backing /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP implements http.Handler.  Every /v1/ request runs under
// the tracing middleware (trace.go): request ID, span tree, stage
// histograms, access log, sampled trace files.  The health and metrics
// probes bypass it — they are scraped constantly and carry no stages.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		s.observeRequest(w, r)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Drain refuses new compute requests (503) and waits for in-flight ones
// to complete, or for ctx to expire.  It is the SIGTERM path of
// cmd/predserved; calling it more than once is safe.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// enter registers a compute request against the drain barrier.  It
// reports false — and answers 503 — once draining has begun.
func (s *Server) enter(w http.ResponseWriter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.reg.Counter("serve_rejected_draining").Inc()
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting new requests")
		return false
	}
	s.inflight.Add(1)
	return true
}

// errQueueFull is admission control's refusal; the handler maps it to
// 429 + Retry-After.
var errQueueFull = errors.New("serve: compute queue full")

// admit claims a queue token (refusing immediately when the waiting line
// is full) and then blocks for an execution token.  The returned release
// frees both.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.reg.Counter("serve_rejected_queue").Inc()
		return nil, errQueueFull
	}
	select {
	case s.workers <- struct{}{}:
		return func() { <-s.workers; <-s.queue }, nil
	case <-ctx.Done():
		<-s.queue
		return nil, ctx.Err()
	}
}

// timeoutFor resolves the request's compute deadline: the server default,
// lowered (never raised) by an explicit ?timeout=.
func (s *Server) timeoutFor(r *http.Request) (time.Duration, error) {
	t := s.cfg.RequestTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("bad timeout %q: %v", v, err)
		}
		if d <= 0 {
			return 0, fmt.Errorf("bad timeout %q: must be positive", v)
		}
		if d < t {
			t = d
		}
	}
	return t, nil
}

// CellResponse is the /v1/cell and /v1/breakdown body (schema documented
// in docs/SERVING.md; keep the two in sync).
type CellResponse struct {
	Kernel    string          `json:"kernel"`
	Model     string          `json:"model"`
	Machine   obs.MachineMeta `json:"machine"`
	Key       string          `json:"key"`
	Checksum  int64           `json:"checksum"`
	Steps     int64           `json:"steps"`
	Stats     sim.Stats       `json:"stats"`
	IPC       float64         `json:"ipc"`
	UsefulIPC float64         `json:"useful_ipc"`
	Breakdown *obs.Breakdown  `json:"breakdown,omitempty"`
	Mix       []obs.MixEntry  `json:"mix,omitempty"`
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request, observe bool) {
	if !s.enter(w) {
		return
	}
	defer s.inflight.Done()
	s.reg.Counter("serve_requests").Inc()

	q := r.URL.Query()
	kernel := q.Get("kernel")
	if _, err := bench.ByName(kernel); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	model, err := core.ParseModel(q.Get("model"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg, err := machine.ByName(q.Get("machine"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	pred := q.Get("predictor")
	cfg, err = experiments.ApplyPredictor(cfg, pred)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	win := q.Get("window")
	cfg, err = experiments.ApplyWindow(cfg, win)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, err := s.timeoutFor(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	tr := traceFor(r)
	key := ResultKey(kernel, model, cfg, observe)
	// Layer 1: the in-memory LRU.  A local hit is served even for keys
	// another replica owns — it is strictly cheaper than the hop.
	sp := tr.Start("mem")
	body, ok := s.results.Get(key)
	sp.End()
	if ok {
		s.markLocal(w)
		writeCached(w, body.([]byte), "hit")
		return
	}
	// Sharding: route the miss to the key's owner (one hop max); an
	// unreachable owner degrades to computing locally.
	if s.forwardable(r, key) && s.forward(w, r, tr, key) {
		return
	}
	// The closure below runs only on the singleflight leader's goroutine
	// — this one — so the leader's spans land on the leader's trace.  A
	// coalesced waiter's closure never runs; it records the blocked time
	// as one wait span instead of inheriting the leader's stages.
	flightStart := time.Now()
	v, shared, err := s.flight.Do(key, func() (any, error) {
		// Layer 2: the disk store, inside the singleflight so N
		// concurrent misses cost one read, with promotion into memory.
		sp := tr.Start("disk")
		body, ok := s.storeGet(s.resultStore, key)
		sp.End()
		if ok {
			s.results.Add(key, body)
			return served{body, "disk"}, nil
		}
		// Layer 3: compute, with write-through (computeCell persists
		// every sibling body it renders).
		sp = tr.Start("queue")
		release, err := s.admit(r.Context())
		sp.End()
		if err != nil {
			return nil, err
		}
		defer release()
		body, err = s.computeCell(tr, key, kernel, model, cfg, pred, win, observe, timeout)
		if err != nil {
			return nil, err
		}
		return served{body, "miss"}, nil
	})
	if shared {
		tr.Add("wait", flightStart, time.Since(flightStart))
	}
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	sv := v.(served)
	label := sv.state
	if shared {
		s.reg.Counter("serve_coalesced").Inc()
		label = "coalesced"
	}
	s.markLocal(w)
	writeCached(w, sv.body, label)
}

// served is a flight result: the rendered body plus which cache layer
// produced it ("disk" or "miss"), which becomes the X-Cache disposition.
type served struct {
	body  []byte
	state string
}

// markLocal stamps X-Shard: local on responses served by this replica
// when sharding is on (forwarded responses are stamped in forward).
func (s *Server) markLocal(w http.ResponseWriter) {
	if s.ring != nil {
		w.Header().Set("X-Shard", "local")
	}
}

// storeGet reads one record from a disk namespace; a nil store (no
// -store-dir) is always a miss.
func (s *Server) storeGet(st *store.Store, key string) ([]byte, bool) {
	if st == nil {
		return nil, false
	}
	return st.Get(key)
}

// storePut writes through to a disk namespace; write failures are
// counted by the store and otherwise ignored — the disk layer is an
// accelerator, never a dependency.
func (s *Server) storePut(st *store.Store, key string, body []byte) {
	if st != nil {
		st.Put(key, body)
	}
}

// computeCell is the cache-missing path of one cell request: compile (or
// fetch) the artifact, then gang-measure every simulator configuration
// sharing that artifact's scheduled code in a single emulation
// (experiments.MeasureAll) under the request deadline, rendering and
// caching one body per sibling — one miss fills N result-cache entries
// (the siblings count in serve_gang_fill).  It runs inside the
// singleflight, so exactly one execution happens per concurrent set of
// identical requests; concurrent requests for different siblings are
// separate flights that may race, which is benign — both fill the same
// deterministic bytes.
func (s *Server) computeCell(tr *obs.Trace, key, kernel string, model core.Model, cfg machine.Config, pred, win string, observe bool, timeout time.Duration) ([]byte, error) {
	if s.computeHook != nil {
		s.computeHook(key)
	}
	s.reg.Counter("serve_executions").Inc()
	start := time.Now()
	// The guarded closure records its stages as marks in its result, not
	// on the trace: a timed-out closure keeps running after the handler
	// resumes (Guard abandons it), and the marks of an abandoned closure
	// die with its never-delivered gangRun.
	type gangRun struct {
		cfgs  []machine.Config
		ms    []*experiments.Measurement
		marks []stageMark
	}
	out, err := experiments.Guard(timeout, func() (*gangRun, error) {
		g := &gangRun{}
		t0 := time.Now()
		art, err := s.artifact(kernel, model, cfg)
		g.marks = append(g.marks, stageMark{"compile", t0, time.Since(t0)})
		if err != nil {
			return nil, err
		}
		cfgs := experiments.SimsFor(art.Target)
		for i := range cfgs {
			if cfgs[i], err = experiments.ApplyPredictor(cfgs[i], pred); err != nil {
				return nil, err
			}
			if cfgs[i], err = experiments.ApplyWindow(cfgs[i], win); err != nil {
				return nil, err
			}
		}
		t0 = time.Now()
		ms, err := art.MeasureAll(cfgs, observe)
		g.marks = append(g.marks, stageMark{"measure", t0, time.Since(t0)})
		if err != nil {
			return nil, fmt.Errorf("%s %v: %w", art.Kernel, art.Model, err)
		}
		g.cfgs, g.ms = cfgs, ms
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	attachStages(tr, out.marks)
	s.reg.Histogram("serve_compute_ms", obs.LatencyBucketsMS).ObserveDuration(time.Since(start))

	sp := tr.Start("render")
	defer sp.End()
	var body []byte
	for i, c := range out.cfgs {
		ckey := ResultKey(kernel, model, c, observe)
		m := out.ms[i]
		resp := CellResponse{
			Kernel:    kernel,
			Model:     model.String(),
			Machine:   obs.MachineMetaOf(c),
			Key:       ckey,
			Checksum:  m.Checksum,
			Steps:     m.Steps,
			Stats:     m.Stats,
			IPC:       m.Stats.IPC(),
			UsefulIPC: m.Stats.UsefulIPC(),
		}
		if m.Account != nil {
			resp.Breakdown = &m.Account.Breakdown
			resp.Mix = m.Account.Mix()
		}
		b, err := json.MarshalIndent(&resp, "", "  ")
		if err != nil {
			return nil, err
		}
		b = append(b, '\n')
		s.results.Add(ckey, b)
		s.storePut(s.resultStore, ckey, b)
		if ckey == key {
			body = b
		} else {
			s.reg.Counter("serve_gang_fill").Inc()
		}
	}
	if body == nil {
		return nil, fmt.Errorf("serve: configuration %s missing from its own sibling set", cfg.Name)
	}
	return body, nil
}

// artifact returns the compiled artifact for the cell, through the
// content-addressed cache layers: memory, then the disk store (decoded
// artifacts are measurement-identical to compiled ones — pinned by
// TestArtifactCodecParity), then a compile with write-through.  A compile
// schedules the cell's formed program (see formedProgram) for its target.
// Its own singleflight key prevents two simulator configurations sharing
// scheduled code (the cache variants) from compiling the same artifact
// twice concurrently.
func (s *Server) artifact(kernel string, model core.Model, cfg machine.Config) (*experiments.CellArtifact, error) {
	target := experiments.SchedTarget(cfg)
	akey := ArtifactKey(kernel, model, target)
	if v, ok := s.artifacts.Get(akey); ok {
		return v.(*experiments.CellArtifact), nil
	}
	v, _, err := s.flight.Do("compile:"+akey, func() (any, error) {
		if v, ok := s.artifacts.Peek(akey); ok {
			return v, nil
		}
		if art, ok := s.storedArtifact(s.artifactStore, akey); ok {
			s.artifacts.Add(akey, art)
			return art, nil
		}
		f, err := s.formedProgram(kernel, model)
		if err != nil {
			return nil, err
		}
		art, err := experiments.ScheduleCell(kernel, f, target, core.DefaultOptions(target))
		if err != nil {
			return nil, fmt.Errorf("%s %v @ %s: %w", kernel, model, target.Name, err)
		}
		s.artifacts.Add(akey, art)
		s.storeArtifact(s.artifactStore, akey, art)
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*experiments.CellArtifact), nil
}

// formedProgram returns the kernel's program formed for the model through
// the formed-program layer, an LRU in memory only: a restart forms again
// on its first miss.  Formation reads no machine, so every scheduling
// target of a model shares one entry, and as in experiments.Run the
// conditional-move form is derived from the fully predicated one, which
// the guard-instruction model schedules directly.  Each form is built
// under its own singleflight key.
func (s *Server) formedProgram(kernel string, model core.Model) (*core.Formed, error) {
	fopts := core.DefaultOptions(machine.Config{})
	if model == core.GuardInstr {
		full, err := s.formedProgram(kernel, core.FullPred)
		if err != nil {
			return nil, err
		}
		return full.Derive(model, fopts)
	}
	fkey := formedKey(kernel, model)
	if v, ok := s.formed.Get(fkey); ok {
		return v.(*core.Formed), nil
	}
	v, _, err := s.flight.Do("form:"+fkey, func() (any, error) {
		if v, ok := s.formed.Peek(fkey); ok {
			return v, nil
		}
		var f *core.Formed
		if model == core.CondMove {
			full, err := s.formedProgram(kernel, core.FullPred)
			if err != nil {
				return nil, err
			}
			if f, err = full.Derive(model, fopts); err != nil {
				return nil, fmt.Errorf("%s %v: %w", kernel, model, err)
			}
		} else {
			k, err := bench.ByName(kernel)
			if err != nil {
				return nil, err
			}
			if f, err = core.Form(k.Build(), model, fopts); err != nil {
				return nil, fmt.Errorf("%s %v: %w", kernel, model, err)
			}
		}
		s.reg.Counter("serve_formations").Inc()
		s.formed.Add(fkey, f)
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.Formed), nil
}

// storedArtifact loads and decodes one artifact record.  A record that
// no longer decodes (a format skew after an upgrade) counts as a decode
// error and a miss — the caller recompiles and overwrites nothing (the
// store is write-once; skewed stores want a new -store-dir, see
// docs/SERVING.md).
func (s *Server) storedArtifact(st *store.Store, akey string) (*experiments.CellArtifact, bool) {
	data, ok := s.storeGet(st, akey)
	if !ok {
		return nil, false
	}
	art, err := experiments.DecodeArtifact(data)
	if err != nil {
		s.reg.Counter("store_artifact_decode_errors").Inc()
		return nil, false
	}
	return art, true
}

// storeArtifact encodes and persists one artifact; like all disk writes
// it is best-effort.
func (s *Server) storeArtifact(st *store.Store, akey string, art *experiments.CellArtifact) {
	if st == nil {
		return
	}
	if data, err := experiments.EncodeArtifact(art); err == nil {
		st.Put(akey, data)
	}
}

// FiguresResponse is the /v1/figures body: the paper's rendered tables.
type FiguresResponse struct {
	Tables []TableJSON `json:"tables"`
	Steps  int64       `json:"steps"`
	Errors []string    `json:"errors"`
}

// TableJSON mirrors experiments.Table with JSON tags.
type TableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.inflight.Done()
	s.reg.Counter("serve_requests").Inc()

	var kernels []string
	if v := r.URL.Query().Get("kernels"); v != "" {
		kernels = strings.Split(v, ",")
		for _, k := range kernels {
			if _, err := bench.ByName(k); err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
		}
	}
	timeout, err := s.timeoutFor(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	tr := traceFor(r)
	key := FiguresKey(kernels)
	sp := tr.Start("mem")
	body, ok := s.results.Get(key)
	sp.End()
	if ok {
		writeCached(w, body.([]byte), "hit")
		return
	}
	flightStart := time.Now()
	v, shared, err := s.flight.Do(key, func() (any, error) {
		sp := tr.Start("disk")
		body, ok := s.storeGet(s.resultStore, key)
		sp.End()
		if ok {
			s.results.Add(key, body)
			return served{body, "disk"}, nil
		}
		sp = tr.Start("queue")
		release, err := s.admit(r.Context())
		sp.End()
		if err != nil {
			return nil, err
		}
		defer release()
		body, err = s.computeFigures(tr, key, kernels, timeout)
		if err != nil {
			return nil, err
		}
		return served{body, "miss"}, nil
	})
	if shared {
		tr.Add("wait", flightStart, time.Since(flightStart))
	}
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	sv := v.(served)
	label := sv.state
	if shared {
		s.reg.Counter("serve_coalesced").Inc()
		label = "coalesced"
	}
	writeCached(w, sv.body, label)
}

// computeFigures runs the suite on the requested kernels inside one
// worker slot (Parallel: 1 keeps the daemon's concurrency bounded by the
// pool, not multiplied by it) under the request deadline.
func (s *Server) computeFigures(tr *obs.Trace, key string, kernels []string, timeout time.Duration) ([]byte, error) {
	if s.computeHook != nil {
		s.computeHook(key)
	}
	s.reg.Counter("serve_executions").Inc()
	// As in computeCell, the guarded closure must not touch the trace;
	// the whole suite run is one measure mark carried out in the result.
	type figRun struct {
		suite *experiments.Suite
		marks []stageMark
	}
	out, err := experiments.Guard(timeout, func() (*figRun, error) {
		g := &figRun{}
		t0 := time.Now()
		suite, err := experiments.Run(experiments.Options{Kernels: kernels, Parallel: 1, CellTimeout: timeout})
		g.marks = append(g.marks, stageMark{"measure", t0, time.Since(t0)})
		if err != nil {
			return nil, err
		}
		g.suite = suite
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	attachStages(tr, out.marks)
	suite := out.suite

	sp := tr.Start("render")
	defer sp.End()
	resp := FiguresResponse{Errors: []string{}, Steps: suite.Steps}
	for _, t := range suite.AllTables() {
		resp.Tables = append(resp.Tables, TableJSON{Title: t.Title, Headers: t.Headers, Rows: t.Rows})
	}
	for _, e := range suite.Errors {
		resp.Errors = append(resp.Errors, e.Error())
	}
	body, err := json.MarshalIndent(&resp, "", "  ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	s.results.Add(key, body)
	s.storePut(s.resultStore, key, body)
	return body, nil
}

// HealthResponse is the /healthz body.  Store and Shard are present only
// when the corresponding subsystem is configured.
type HealthResponse struct {
	Status string                  `json:"status"`
	Store  map[string]store.Status `json:"store,omitempty"`
	Shard  *ShardStatus            `json:"shard,omitempty"`
}

// ShardStatus reports the replica's view of the ring.
type ShardStatus struct {
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	resp := HealthResponse{Status: "ok"}
	code := http.StatusOK
	if draining {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	if s.resultStore != nil {
		resp.Store = map[string]store.Status{
			"results":          s.resultStore.Status(),
			"artifacts":        s.artifactStore.Status(),
			"submit_results":   s.submitResultStore.Status(),
			"submit_artifacts": s.submitArtifactStore.Status(),
		}
	}
	if s.ring != nil {
		resp.Shard = &ShardStatus{Self: s.ring.self, Peers: s.ring.peers}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(&resp)
	w.Write(append(b, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

// writeComputeError maps compute failures onto status codes: admission
// refusals to 429 with a Retry-After hint, exceeded deadlines to 504,
// a canceled client to 499-equivalent 503, anything else (compile or
// measurement failure, guarded panic) to 500 with the one-line message.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	var te *experiments.TimeoutError
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		httpError(w, http.StatusTooManyRequests, "compute queue full, retry later")
	case errors.As(err, &te):
		httpError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		s.reg.Counter("serve_errors").Inc()
		httpError(w, http.StatusInternalServerError, firstLine(err.Error()))
	}
}

// writeCached writes a rendered response body with its cache disposition
// in the X-Cache header.
func writeCached(w http.ResponseWriter, body []byte, disposition string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	w.Write(body)
}

// httpError writes a one-line JSON error document.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

// firstLine truncates multi-line diagnostics (a guarded panic carries a
// stack in its wrapped error, never in the served message).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
