package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
	"predication/internal/submit"
)

// POST /v1/submit runs an untrusted .psasm program through the admission
// gate (internal/submit) and measures the admitted program under the
// requested models.  The handler is ordered so the cheapest refusals
// come first and nothing below a layer runs once that layer refuses:
//
//	drain barrier → rate limit (429) → query validation (400) →
//	body cap (413) → parse/limits/verify gate → result cache →
//	singleflight → submission pool (429) → compile+measure under
//	deadline, every failure layer-tagged (submit.Classify)
//
// Submissions run on their own worker pool and fill their own caches,
// keyed by the canonical program's SHA-256 — two submissions differing
// only in whitespace or comments share one compile and one cache entry.
// A computed cell gang-fills the sibling simulator configurations of its
// scheduling target exactly like /v1/cell.  Every rejection increments
// submit_rejected_<layer>; rejections are never cached (the rate limiter
// is the flood backstop, and a cached rejection could mask a raised
// limit).

// Serve-local rejection layers: refusals issued above the admission gate.
const (
	layerRate  = "rate"  // per-client token bucket
	layerQueue = "queue" // submission pool full
)

// SubmitResponse is the /v1/submit body (schema documented in
// docs/SERVING.md; keep the two in sync).
type SubmitResponse struct {
	// Program is the canonical form's SHA-256 — the submission's content
	// address.  Resubmitting any equivalent source returns this digest.
	Program string              `json:"program"`
	Key     string              `json:"key"`
	Machine obs.MachineMeta     `json:"machine"`
	Instrs  int                 `json:"instrs"`
	Models  []SubmitModelResult `json:"models"`
}

// SubmitModelResult is one model's measurement of the submitted program:
// the same shape as a /v1/breakdown cell.
type SubmitModelResult struct {
	Model     string         `json:"model"`
	Checksum  int64          `json:"checksum"`
	Steps     int64          `json:"steps"`
	Stats     sim.Stats      `json:"stats"`
	IPC       float64        `json:"ipc"`
	UsefulIPC float64        `json:"useful_ipc"`
	Breakdown *obs.Breakdown `json:"breakdown,omitempty"`
	Mix       []obs.MixEntry `json:"mix,omitempty"`
}

// allModels is the default measurement set: the paper's four execution
// models.
var allModels = []core.Model{core.Superblock, core.CondMove, core.FullPred, core.GuardInstr}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.inflight.Done()
	s.reg.Counter("submit_requests").Inc()
	tr := traceFor(r)

	sp := tr.Start("rate")
	allowed := s.limiter.allow(clientKey(r))
	sp.End()
	if !allowed {
		s.writeSubmitReject(w, r, layerRate, http.StatusTooManyRequests,
			"submission rate limit exceeded, retry later")
		return
	}

	q := r.URL.Query()
	machineName := q.Get("machine")
	if machineName == "" {
		machineName = "issue8-br1"
	}
	cfg, err := machine.ByName(machineName)
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
	models := allModels
	if v := q.Get("model"); v != "" {
		m, err := core.ParseModel(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		models = []core.Model{m}
	}
	timeout, err := s.timeoutFor(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The gate span covers reading the capped body plus the parse,
	// limits, and verifier layers of submit.Admit.
	sp = tr.Start("gate")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.submitLimits.MaxBytes))
	if err != nil {
		sp.End()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeSubmitReject(w, r, submit.LayerBody, submit.StatusFor(submit.LayerBody),
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, "reading request body: "+firstLine(err.Error()))
		return
	}

	prog, rej := submit.Admit(string(body), s.submitLimits)
	sp.End()
	if rej != nil {
		s.writeSubmitReject(w, r, rej.Layer, rej.Status(), rej.Error())
		return
	}

	key := submitResultKey(prog.Digest, models, cfg, s.submitLimits.MaxSteps)
	sp = tr.Start("mem")
	cached, ok := s.submitResults.Get(key)
	sp.End()
	if ok {
		writeCached(w, cached.([]byte), "hit")
		return
	}
	flightStart := time.Now()
	v, shared, err := s.flight.Do(key, func() (any, error) {
		// The submission disk namespace: separate from the kernel one,
		// with its own byte budget, so hostile submissions cannot evict
		// kernel records (Config.SubmitStoreMaxBytes).
		sp := tr.Start("disk")
		body, ok := s.storeGet(s.submitResultStore, key)
		sp.End()
		if ok {
			s.submitResults.Add(key, body)
			return served{body, "disk"}, nil
		}
		sp = tr.Start("queue")
		release, err := s.admitSubmit(r.Context())
		sp.End()
		if err != nil {
			return nil, err
		}
		defer release()
		body, err = s.computeSubmit(tr, key, prog, models, cfg, pred, win, timeout)
		if err != nil {
			return nil, err
		}
		return served{body, "miss"}, nil
	})
	if shared {
		tr.Add("wait", flightStart, time.Since(flightStart))
	}
	if err != nil {
		s.writeSubmitError(w, r, err)
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

// errSubmitQueueFull is the submission pool's refusal.
var errSubmitQueueFull = errors.New("serve: submission queue full")

// admitSubmit is admit for the submission-scoped pool: kernel-endpoint
// traffic and submissions hold separate tokens, so neither can starve
// the other.
func (s *Server) admitSubmit(ctx context.Context) (release func(), err error) {
	select {
	case s.submitQueue <- struct{}{}:
	default:
		return nil, errSubmitQueueFull
	}
	select {
	case s.submitWorkers <- struct{}{}:
		return func() { <-s.submitWorkers; <-s.submitQueue }, nil
	case <-ctx.Done():
		<-s.submitQueue
		return nil, ctx.Err()
	}
}

// computeSubmit is the cache-missing path of one submission: compile the
// program under every requested model (artifacts content-addressed by
// the canonical digest), gang-measure each across the simulator
// configurations sharing the scheduling target, and render one body per
// sibling configuration — all under the request deadline with panic
// isolation, every failure funneled through submit.Classify so it
// surfaces layer-tagged, never as a 500.
func (s *Server) computeSubmit(tr *obs.Trace, key string, prog *submit.Program, models []core.Model, cfg machine.Config, pred, win string, timeout time.Duration) ([]byte, error) {
	if s.computeHook != nil {
		s.computeHook(key)
	}
	s.reg.Counter("submit_executions").Inc()
	start := time.Now()
	// Stage marks instead of spans inside the guarded closure — see
	// computeCell; a submission compiles and measures once per model, so
	// the compile and measure stages each sum their per-model marks.
	type gangRun struct {
		cfgs  []machine.Config
		ms    [][]*experiments.Measurement // [model][sibling]
		marks []stageMark
	}
	out, err := experiments.Guard(timeout, func() (*gangRun, error) {
		g := &gangRun{}
		cfgs := experiments.SimsFor(experiments.SchedTarget(cfg))
		for i := range cfgs {
			var err error
			if cfgs[i], err = experiments.ApplyPredictor(cfgs[i], pred); err != nil {
				return nil, err
			}
			if cfgs[i], err = experiments.ApplyWindow(cfgs[i], win); err != nil {
				return nil, err
			}
		}
		ms := make([][]*experiments.Measurement, len(models))
		for i, m := range models {
			t0 := time.Now()
			art, err := s.submitArtifact(prog, m, cfg)
			g.marks = append(g.marks, stageMark{"compile", t0, time.Since(t0)})
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			ms[i], err = art.MeasureAll(cfgs, true)
			g.marks = append(g.marks, stageMark{"measure", t0, time.Since(t0)})
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", art.Kernel, art.Model, err)
			}
		}
		g.cfgs, g.ms = cfgs, ms
		return g, nil
	})
	if err != nil {
		var rej *submit.Reject
		if !errors.As(err, &rej) {
			rej = submit.Classify(err)
		}
		return nil, rej
	}
	attachStages(tr, out.marks)
	s.reg.Histogram("submit_compute_ms", obs.LatencyBucketsMS).ObserveDuration(time.Since(start))

	sp := tr.Start("render")
	defer sp.End()
	var body []byte
	for ci, c := range out.cfgs {
		ckey := submitResultKey(prog.Digest, models, c, s.submitLimits.MaxSteps)
		resp := SubmitResponse{
			Program: prog.Digest,
			Key:     ckey,
			Machine: obs.MachineMetaOf(c),
			Instrs:  prog.Instrs,
		}
		for mi, m := range models {
			meas := out.ms[mi][ci]
			mr := SubmitModelResult{
				Model:     m.String(),
				Checksum:  meas.Checksum,
				Steps:     meas.Steps,
				Stats:     meas.Stats,
				IPC:       meas.Stats.IPC(),
				UsefulIPC: meas.Stats.UsefulIPC(),
			}
			if meas.Account != nil {
				mr.Breakdown = &meas.Account.Breakdown
				mr.Mix = meas.Account.Mix()
			}
			resp.Models = append(resp.Models, mr)
		}
		b, err := json.MarshalIndent(&resp, "", "  ")
		if err != nil {
			return nil, err
		}
		b = append(b, '\n')
		s.submitResults.Add(ckey, b)
		s.storePut(s.submitResultStore, ckey, b)
		if ckey == key {
			body = b
		} else {
			s.reg.Counter("submit_gang_fill").Inc()
		}
	}
	if body == nil {
		return nil, fmt.Errorf("serve: configuration %s missing from its own sibling set", cfg.Name)
	}
	return body, nil
}

// submitArtifact compiles the admitted program under one model through
// the submission artifact cache, singleflighted like the kernel path.
// The returned error is a *submit.Reject when the gate refused it.
func (s *Server) submitArtifact(prog *submit.Program, model core.Model, cfg machine.Config) (*experiments.CellArtifact, error) {
	akey := submitArtifactKey(prog.Digest, model, experiments.SchedTarget(cfg), s.submitLimits.MaxSteps)
	if v, ok := s.submitArtifacts.Get(akey); ok {
		return v.(*experiments.CellArtifact), nil
	}
	v, _, err := s.flight.Do("compile:"+akey, func() (any, error) {
		if v, ok := s.submitArtifacts.Peek(akey); ok {
			return v, nil
		}
		if art, ok := s.storedArtifact(s.submitArtifactStore, akey); ok {
			s.submitArtifacts.Add(akey, art)
			return art, nil
		}
		art, rej := prog.Artifact(model, cfg, s.submitLimits)
		if rej != nil {
			return nil, rej
		}
		s.submitArtifacts.Add(akey, art)
		s.storeArtifact(s.submitArtifactStore, akey, art)
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*experiments.CellArtifact), nil
}

// submitArtifactKey addresses one compiled submission: the canonical
// program digest, the model, the scheduling target and the step quota
// (the quota bounds the profiling run, so it shapes the listing).
func submitArtifactKey(progDigest string, model core.Model, target machine.Config, maxSteps int64) string {
	return digest(fmt.Sprintf("submitart|program=%s|model=%d|target=%s|steps=%d",
		progDigest, model, target.Name, maxSteps))
}

// submitResultKey addresses one rendered submission response: the
// canonical program digest, the measured model set in request order, the
// simulator configuration, and the step quota.  The quota is part of the
// address because the submission caches now outlive the process (the
// disk store): a daemon restarted with a different -max-submit-steps
// must not serve measurements taken under the old quota.
func submitResultKey(progDigest string, models []core.Model, cfg machine.Config, maxSteps int64) string {
	return digest(fmt.Sprintf("submit|program=%s|models=%v|sim=%#v|steps=%d", progDigest, models, cfg, maxSteps))
}

// writeSubmitError maps a submission compute failure onto its response.
// computeSubmit funnels everything through submit.Classify, so by here
// every failure is a layer-tagged Reject except the pool's own refusals.
func (s *Server) writeSubmitError(w http.ResponseWriter, r *http.Request, err error) {
	var rej *submit.Reject
	switch {
	case errors.Is(err, errSubmitQueueFull):
		s.writeSubmitReject(w, r, layerQueue, http.StatusTooManyRequests,
			"submission queue full, retry later")
	case errors.As(err, &rej):
		s.writeSubmitReject(w, r, rej.Layer, rej.Status(), rej.Error())
	default:
		// Client went away while queued, or a marshalling failure.
		s.writeComputeError(w, err)
	}
}

// writeSubmitReject writes a layer-tagged JSON refusal and counts it.
// 429 layers carry the Retry-After hint.  The refusing layer is also
// annotated on the request trace, so the access log's reject_layer
// field matches the body's layer tag.
func (s *Server) writeSubmitReject(w http.ResponseWriter, r *http.Request, layer string, code int, msg string) {
	s.reg.Counter("submit_rejected_" + layer).Inc()
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		tr.Annotate("reject_layer", layer)
	}
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q,\"layer\":%q}\n", msg, layer)
}

// clientKey identifies the submitting client for rate limiting: the
// remote address without its ephemeral port.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
