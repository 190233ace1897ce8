package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Request tracing (docs/OBSERVABILITY.md, "Request tracing & access
// logs"): the serving analogue of cycle accounting.  A Trace carries one
// request's identity (the X-Request-Id header value) and a tree of
// Spans, each a named stage of the request lifecycle timed against the
// monotonic clock.  The serving daemon exports a finished trace three
// ways — a Server-Timing response header, per-stage latency histograms
// in the Registry, and (for sampled or slow requests) the Chrome
// trace-event document rendered through TraceWriter — so a request's
// milliseconds are attributable the same way a simulated run's cycles
// are.
//
// A Trace is deliberately not synchronized: one request is handled by
// one goroutine at a time (the singleflight leader runs stage code on
// its own goroutine with its own trace; coalesced waiters record a
// single wait span instead of inheriting the leader's stages).

// Span is one timed stage of a request.  Child spans nest inside their
// parent; sibling spans are sequential.
type Span struct {
	// ID is unique within the trace, assigned in start order (the root
	// span is 0).
	ID int
	// Name is the stage name — a Server-Timing token: ASCII letters,
	// digits, '_' and '-' only.
	Name string
	// Offset is the span's start relative to the trace's start.
	Offset time.Duration
	// Dur is the span's duration; zero until the span has ended.
	Dur time.Duration
	// Children are the nested sub-stages, in start order.
	Children []*Span

	tr     *Trace
	parent *Span
	start  time.Time
	ended  bool
}

// Trace is one request's span tree plus its identity and annotations.
type Trace struct {
	// ID is the request ID: accepted from the X-Request-Id header when
	// syntactically valid, minted otherwise.
	ID string

	start  time.Time
	root   *Span
	open   []*Span // innermost open span last; open[0] is the root
	nextID int
	notes  map[string]string
}

// NewTrace starts a trace.  A syntactically valid id is adopted
// verbatim (propagation: a forwarded request keeps its identity across
// the hop); anything else — including the empty string — mints a fresh
// ID.
func NewTrace(id string) *Trace {
	if !ValidRequestID(id) {
		id = MintRequestID()
	}
	t := &Trace{ID: id, start: time.Now()}
	t.root = &Span{ID: 0, Name: "request", tr: t, start: t.start}
	t.nextID = 1
	t.open = []*Span{t.root}
	return t
}

// Start opens a new span named name as a child of the innermost open
// span and returns it; the caller ends it with End.
func (t *Trace) Start(name string) *Span {
	parent := t.open[len(t.open)-1]
	sp := &Span{
		ID:     t.nextID,
		Name:   name,
		Offset: time.Since(t.start),
		tr:     t,
		parent: parent,
		start:  time.Now(),
	}
	t.nextID++
	parent.Children = append(parent.Children, sp)
	t.open = append(t.open, sp)
	return sp
}

// End closes the span (and, defensively, any still-open descendants).
// Ending a span twice is a no-op.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	t := sp.tr
	for i := len(t.open) - 1; i > 0; i-- {
		s := t.open[i]
		t.open = t.open[:i]
		s.Dur = time.Since(s.start)
		s.ended = true
		if s == sp {
			return
		}
	}
}

// Add attaches an already-completed span (started at start, lasting
// dur) as a child of the innermost open span.  It is how a coalesced
// waiter records the time it spent blocked on the singleflight leader
// without inheriting the leader's stage spans.
func (t *Trace) Add(name string, start time.Time, dur time.Duration) *Span {
	parent := t.open[len(t.open)-1]
	sp := &Span{
		ID:     t.nextID,
		Name:   name,
		Offset: start.Sub(t.start),
		Dur:    dur,
		tr:     t,
		parent: parent,
		start:  start,
		ended:  true,
	}
	t.nextID++
	parent.Children = append(parent.Children, sp)
	return sp
}

// Finish ends every span still open, the root included.  It is
// idempotent.
func (t *Trace) Finish() {
	for i := len(t.open) - 1; i >= 0; i-- {
		if s := t.open[i]; !s.ended {
			s.Dur = time.Since(s.start)
			s.ended = true
		}
	}
	t.open = t.open[:1] // the root stays addressable for Wall/Stages reads
}

// Wall is the request's server-side wall time: the root span's duration
// once finished, or the time elapsed so far.
func (t *Trace) Wall() time.Duration {
	if t.root.ended {
		return t.root.Dur
	}
	return time.Since(t.start)
}

// Annotate attaches a key/value note to the trace (the submit path
// records its rejection layer this way; the access log carries notes
// through).
func (t *Trace) Annotate(k, v string) {
	if t.notes == nil {
		t.notes = map[string]string{}
	}
	t.notes[k] = v
}

// Annotation returns the note stored under k, or "".
func (t *Trace) Annotation(k string) string { return t.notes[k] }

// Walk visits every span depth-first in start order, the root at depth
// zero.
func (t *Trace) Walk(fn func(depth int, sp *Span)) {
	var rec func(depth int, sp *Span)
	rec = func(depth int, sp *Span) {
		fn(depth, sp)
		for _, c := range sp.Children {
			rec(depth+1, c)
		}
	}
	rec(0, t.root)
}

// Stage is one top-level stage's total duration.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Stages returns the root's direct children in first-start order,
// summing repeated names (the submit path compiles once per model under
// the same "compile" stage).  Top-level stages are sequential and
// non-overlapping by construction, so their durations sum to (almost)
// the request's wall time — the property the Server-Timing header
// exports.
func (t *Trace) Stages() []Stage {
	var order []string
	sums := map[string]time.Duration{}
	for _, c := range t.root.Children {
		if _, ok := sums[c.Name]; !ok {
			order = append(order, c.Name)
		}
		sums[c.Name] += c.Dur
	}
	stages := make([]Stage, len(order))
	for i, name := range order {
		stages[i] = Stage{Name: name, Dur: sums[name]}
	}
	return stages
}

// ServerTiming renders the top-level stages as a Server-Timing header
// value — `mem;dur=0.041, compute;dur=12.930, total;dur=13.002` — with
// durations in milliseconds and `total` the wall time so far (the
// header is stamped just before the response body, so `total` excludes
// only the final write).
func (t *Trace) ServerTiming() string {
	var sb strings.Builder
	for _, st := range t.Stages() {
		fmt.Fprintf(&sb, "%s;dur=%s, ", st.Name, formatMillis(st.Dur))
	}
	fmt.Fprintf(&sb, "total;dur=%s", formatMillis(t.Wall()))
	return sb.String()
}

// formatMillis renders a duration as decimal milliseconds with
// microsecond resolution and no trailing zeros.
func formatMillis(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Microseconds())/1000, 'f', -1, 64)
}

// WriteChrome renders the span tree as Chrome trace-event records into
// tw (one complete "X" event per span, all on thread 0, timestamps in
// microseconds from the trace's start).  Nested spans nest in the
// rendered timeline because their intervals nest.
func (t *Trace) WriteChrome(tw *TraceWriter) {
	t.Walk(func(depth int, sp *Span) {
		tw.Complete(sp.Name, 0, sp.Offset.Microseconds(), sp.Dur.Microseconds(),
			map[string]int64{"span_id": int64(sp.ID)})
	})
}

// ChromeBreakdown overlays a simulator cycle breakdown onto the request
// timeline: each nonzero cause becomes one event on thread 1, laid out
// sequentially across [start, start+dur] with width proportional to its
// cycle share, the actual cycle count in args.  Rendered inside the
// request's measure span, the simulator's cycle account and the serving
// stages read as one timeline.
func ChromeBreakdown(tw *TraceWriter, b *Breakdown, start, dur time.Duration) {
	total := b.Total()
	if total <= 0 || dur <= 0 {
		return
	}
	ts := start.Microseconds()
	end := (start + dur).Microseconds()
	for c, v := range b {
		if v == 0 {
			continue
		}
		w := dur.Microseconds() * v / total
		if ts+w > end {
			w = end - ts
		}
		tw.Complete("sim:"+Cause(c).String(), 1, ts, w, map[string]int64{"cycles": v})
		ts += w
	}
}

// traceCtxKey keys the request trace in a context.
type traceCtxKey struct{}

// WithTrace attaches tr to ctx.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// MintRequestID returns a fresh 32-hex-character request ID.
func MintRequestID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of; degrade to a constant that
		// is still a valid ID rather than panicking a serving daemon.
		return "00000000deadbeef00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether s is acceptable as a propagated
// request ID: 8–64 characters of ASCII letters, digits, '.', '_' and
// '-', not starting with '.' or '-'.  The character set keeps IDs safe
// as log fields, header values, and trace file names.
func ValidRequestID(s string) bool {
	if len(s) < 8 || len(s) > 64 {
		return false
	}
	if s[0] == '.' || s[0] == '-' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Complete writes one complete ("ph":"X") trace event with an explicit
// thread, microsecond timestamp, duration, and numeric args — the
// generic sibling of the per-instruction Event records, used to render
// request span trees into the same document format.  Args are emitted
// in sorted key order so the output is deterministic.
func (t *TraceWriter) Complete(name string, tid int, ts, dur int64, args map[string]int64) {
	if t.err != nil {
		return
	}
	var sb strings.Builder
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%q:%d", k, args[k])
	}
	var err error
	switch t.format {
	case FormatChrome:
		comma := ","
		if t.emitted == 0 {
			comma = ""
		}
		_, err = fmt.Fprintf(t.w,
			`%s{"name":%q,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d,"args":{%s}}`,
			comma, name, ts, dur, tid, sb.String())
	case FormatJSONL:
		_, err = fmt.Fprintf(t.w,
			"{\"name\":%q,\"ts\":%d,\"dur\":%d,\"tid\":%d,\"args\":{%s}}\n",
			name, ts, dur, tid, sb.String())
	}
	if err != nil && t.err == nil {
		t.err = err
	}
	t.emitted++
}
