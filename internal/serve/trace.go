package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"predication/internal/obs"
)

// Request observability (docs/OBSERVABILITY.md, "Request tracing &
// access logs"): every /v1/ request runs under an obs.Trace carrying
// its X-Request-Id and a span tree of lifecycle stages.  The middleware
// in observeRequest owns the trace's lifetime; handlers open and close
// spans; the statusWriter stamps the Server-Timing header the moment
// the response starts, so every response — hits, misses, rejections —
// carries its stage attribution without each write site knowing about
// tracing.
//
// Stage code that runs under experiments.Guard must NOT touch the
// request trace: Guard abandons a timed-out closure, which then races
// the handler goroutine finishing the trace.  Such code records
// stageMarks into the value it returns through Guard instead, and the
// handler attaches the marks only after Guard returns success —
// an abandoned closure's marks die with its never-delivered result.

// stageMark is one stage timed inside a Guard closure, to be attached
// to the request trace by the caller after the closure has provably
// finished.
type stageMark struct {
	name  string
	start time.Time
	dur   time.Duration
}

// attachStages replays Guard-closure stage marks onto the trace.
func attachStages(tr *obs.Trace, marks []stageMark) {
	for _, m := range marks {
		tr.Add(m.name, m.start, m.dur)
	}
}

// traceFor returns the request's trace, minting a detached one when the
// request bypassed the middleware (direct handler calls in tests), so
// handlers never guard span calls.
func traceFor(r *http.Request) *obs.Trace {
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		return tr
	}
	return obs.NewTrace("")
}

// statusWriter wraps the response writer to capture the status code and
// body size for the access log, stamp Server-Timing at first write, and
// (only when trace files are enabled) buffer the body so a sampled
// trace can overlay the simulator's cycle breakdown.
type statusWriter struct {
	http.ResponseWriter
	tr     *obs.Trace
	status int
	bytes  int64
	body   []byte // response body prefix; nil unless capture is on
	cap    int    // capture limit; 0 = no capture
}

// bodyCaptureLimit bounds the buffered response prefix used for the
// breakdown overlay; cell and submit bodies are a few KiB.
const bodyCaptureLimit = 1 << 20

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
		// Stamp the stage attribution unless the handler already relayed
		// a combined local+peer header (the forwarded-shard path).
		if sw.tr != nil && sw.Header().Get("Server-Timing") == "" {
			sw.Header().Set("Server-Timing", sw.tr.ServerTiming())
		}
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.WriteHeader(http.StatusOK)
	}
	if sw.cap > 0 && len(sw.body) < sw.cap {
		n := min(len(b), sw.cap-len(sw.body))
		sw.body = append(sw.body, b[:n]...)
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// observeRequest is the tracing middleware wrapped around every /v1/
// route: it adopts or mints the request ID, echoes it, runs the handler
// under the trace, and exports the finished trace three ways — the
// per-stage latency histograms, the access log, and (for sampled or
// slow requests) a Chrome trace-event file.
func (s *Server) observeRequest(w http.ResponseWriter, r *http.Request) {
	tr := obs.NewTrace(r.Header.Get("X-Request-Id"))
	w.Header().Set("X-Request-Id", tr.ID)
	sw := &statusWriter{ResponseWriter: w, tr: tr}
	if s.cfg.TraceDir != "" {
		sw.cap = bodyCaptureLimit
	}

	s.mux.ServeHTTP(sw, r.WithContext(obs.WithTrace(r.Context(), tr)))

	tr.Finish()
	wall := tr.Wall()
	stages := tr.Stages()
	s.reg.Histogram("serve_request_ms", obs.LatencyBucketsMS).ObserveDuration(wall)
	for _, st := range stages {
		s.reg.Histogram("serve_stage_"+st.Name+"_ms", obs.LatencyBucketsMS).ObserveDuration(st.Dur)
	}

	if s.accessLog.Enabled() {
		stagesMS := make(map[string]float64, len(stages))
		for _, st := range stages {
			stagesMS[st.Name] = obs.RoundMS(st.Dur)
		}
		rec := obs.AccessRecord{
			RequestID:   tr.ID,
			Method:      r.Method,
			Path:        r.URL.Path,
			Query:       r.URL.RawQuery,
			Status:      sw.status,
			Bytes:       sw.bytes,
			DurationMS:  obs.RoundMS(wall),
			Client:      clientKey(r),
			Cache:       sw.Header().Get("X-Cache"),
			Shard:       sw.Header().Get("X-Shard"),
			RejectLayer: tr.Annotation("reject_layer"),
			StagesMS:    stagesMS,
		}
		if err := s.accessLog.Log(rec); err != nil {
			s.reg.Counter("serve_accesslog_errors").Inc()
		}
	}

	if s.shouldTrace(wall) {
		s.writeRequestTrace(tr, sw.body)
	}
}

// shouldTrace decides whether this request's trace is written to disk:
// every request at or over the slow threshold, plus one of every
// -trace-sample requests.
func (s *Server) shouldTrace(wall time.Duration) bool {
	if s.cfg.TraceDir == "" {
		return false
	}
	if s.cfg.TraceSlowMS > 0 && wall >= time.Duration(s.cfg.TraceSlowMS)*time.Millisecond {
		return true
	}
	if n := int64(s.cfg.TraceSample); n > 0 && (s.traceSeq.Add(1)-1)%n == 0 {
		return true
	}
	return false
}

// writeRequestTrace renders one request's span tree as a Chrome
// trace-event file named <request-id>.trace.json, overlaying the
// simulator's cycle breakdown (when the response body carries one)
// inside the measure span so serving stages and simulated cycles read
// as one timeline.  Trace files are observers: every failure is counted
// and swallowed.
func (s *Server) writeRequestTrace(tr *obs.Trace, body []byte) {
	f, err := os.Create(filepath.Join(s.cfg.TraceDir, tr.ID+".trace.json"))
	if err != nil {
		s.reg.Counter("serve_trace_errors").Inc()
		return
	}
	defer f.Close()
	tw, err := obs.NewTraceWriter(f, nil, obs.TraceOptions{Format: obs.FormatChrome})
	if err != nil {
		s.reg.Counter("serve_trace_errors").Inc()
		return
	}
	tr.WriteChrome(tw)
	if b := breakdownOf(body); b != nil {
		start, dur := measureWindow(tr)
		obs.ChromeBreakdown(tw, b, start, dur)
	}
	if err := tw.Close(); err != nil {
		s.reg.Counter("serve_trace_errors").Inc()
		return
	}
	s.reg.Counter("serve_traces_written").Inc()
}

// breakdownOf extracts a cycle breakdown from a response body: a
// /v1/breakdown cell carries one at the top level, a /v1/submit
// response per model (the first model's is rendered).  Bodies without
// one — plain cells, figures, errors — yield nil.
func breakdownOf(body []byte) *obs.Breakdown {
	if len(body) == 0 || body[0] != '{' {
		return nil
	}
	var probe struct {
		Breakdown *obs.Breakdown `json:"breakdown"`
		Models    []struct {
			Breakdown *obs.Breakdown `json:"breakdown"`
		} `json:"models"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil
	}
	if probe.Breakdown != nil {
		return probe.Breakdown
	}
	if len(probe.Models) > 0 {
		return probe.Models[0].Breakdown
	}
	return nil
}

// measureWindow locates the span the cycle overlay belongs in: the
// request's measure span (the gang simulation), or the whole request
// when the body came from a cache layer.
func measureWindow(tr *obs.Trace) (start, dur time.Duration) {
	start, dur = 0, tr.Wall()
	tr.Walk(func(_ int, sp *obs.Span) {
		if sp.Name == "measure" {
			start, dur = sp.Offset, sp.Dur
		}
	})
	return start, dur
}

// prefixServerTiming rewrites each entry name in a Server-Timing header
// value with the given prefix — how a forwarding replica merges the
// owner's stage attribution into its own header without name
// collisions (`mem;dur=…, forward;dur=…, total;dur=…, peer_compute;…`).
func prefixServerTiming(h, prefix string) string {
	entries := strings.Split(h, ",")
	for i, e := range entries {
		entries[i] = prefix + strings.TrimSpace(e)
	}
	return strings.Join(entries, ", ")
}
