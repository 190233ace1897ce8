package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer.  Spans are recorded from the
// benchmark's side of each public call; the program itself is not
// instrumented.  Op groups the spans of one operation: a compiled cell
// ("eqn full issue8-br1") or an HTTP request (its X-Request-Id).
type span struct {
	Name   string
	Op     string
	Parent int // index of the enclosing span, -1 for a root
	Lane   int // worker goroutine, the Chrome trace's thread
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layerOf maps a span name to its layer: the prefix before the first dot.
// "job" and "http" spans group an operation's layer spans and belong to
// no layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, which is how untraced runs skip tracing at one nil check per
// call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the trace's time base.
func (t *tracer) at(tm time.Time) time.Duration { return tm.Sub(t.epoch) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, op string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, op, parent, lane, now, now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already-timed span.
func (t *tracer) add(name, op string, parent, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, op, parent, lane, t.at(start), t.at(end)})
	return len(t.spans) - 1
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := map[string]float64{}
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[s.Name] += (s.dur() - covered(iv)).Seconds()
	}
	return self
}

// covered is the total length of a union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end time.Duration
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}

// layerCoverage is the share of lanes × wall that top-level layer spans
// starting at or after since account for: 1 means every worker was inside
// some layer call for the whole window.
func layerCoverage(spans []span, since, wall time.Duration, lanes int) float64 {
	var sum time.Duration
	for _, s := range spans {
		if layerOf(s.Name) == "" || s.Start < since {
			continue
		}
		if s.Parent >= 0 && layerOf(spans[s.Parent].Name) != "" {
			continue // nested inside another layer span
		}
		sum += s.dur()
	}
	if wall <= 0 || lanes <= 0 {
		return 0
	}
	return float64(sum) / float64(wall*time.Duration(lanes))
}

// sumDur totals the durations of spans named name, optionally only those
// of one kernel (the first word of Op).
func sumDur(spans []span, name, kernel string) float64 {
	var t time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if kernel != "" && strings.Fields(s.Op + " ")[0] != kernel {
			continue
		}
		t += s.dur()
	}
	return t.Seconds()
}

// chromeTrace is the Chrome trace-event JSON object format.  OtherData
// carries the per-name self times so a reader of the file needs nothing
// else to rank the layers.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents renders spans as complete ("X") events of one process.
func chromeEvents(pid int, process string, spans []span) []chromeEvent {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": process}}}
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: pid, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"op": s.Op},
		})
	}
	return evs
}

func writeChrome(w io.Writer, ct *chromeTrace) error {
	ct.DisplayTimeUnit = "ms"
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}
