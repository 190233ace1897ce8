package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanInvariants: the structural guarantees every exporter
// relies on — unique IDs assigned in start order, children nested
// within their parent's window, child durations bounded by the
// parent's, and the root covering everything.
func TestTraceSpanInvariants(t *testing.T) {
	tr := NewTrace("")
	outer := tr.Start("outer")
	inner := tr.Start("inner")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	tr.Start("tail").End()
	tr.Finish()

	seen := map[int]bool{}
	tr.Walk(func(depth int, sp *Span) {
		if seen[sp.ID] {
			t.Errorf("span ID %d appears twice", sp.ID)
		}
		seen[sp.ID] = true
		if !sp.ended {
			t.Errorf("span %q not ended after Finish", sp.Name)
		}
		if sp.Dur < 0 || sp.Offset < 0 {
			t.Errorf("span %q: negative timing: offset=%v dur=%v", sp.Name, sp.Offset, sp.Dur)
		}
		for _, c := range sp.Children {
			if c.Offset < sp.Offset {
				t.Errorf("child %q starts (%v) before parent %q (%v)", c.Name, c.Offset, sp.Name, sp.Offset)
			}
			if c.Dur > sp.Dur {
				t.Errorf("child %q duration %v exceeds parent %q duration %v", c.Name, c.Dur, sp.Name, sp.Dur)
			}
			if c.Offset+c.Dur > sp.Offset+sp.Dur {
				t.Errorf("child %q ends after parent %q", c.Name, sp.Name)
			}
		}
	})
	if len(seen) != 4 {
		t.Errorf("walked %d spans, want 4 (root, outer, inner, tail)", len(seen))
	}
	if root := tr.root; root.ID != 0 || root.Name != "request" || root.Dur != tr.Wall() {
		t.Errorf("root = {id=%d name=%q dur=%v}, wall %v", root.ID, root.Name, root.Dur, tr.Wall())
	}
	if got := len(tr.root.Children); got != 2 {
		t.Errorf("root has %d direct children, want 2 (outer, tail)", got)
	}
	// Finish is idempotent: a second call must not extend any span.
	rootDur := tr.root.Dur
	time.Sleep(time.Millisecond)
	tr.Finish()
	if tr.root.Dur != rootDur {
		t.Error("second Finish extended the root span")
	}
}

// TestTraceIDPropagation: the round-trip rule — a syntactically valid
// incoming ID is adopted verbatim (the shard hop keeps one identity),
// anything else mints a fresh valid one.
func TestTraceIDPropagation(t *testing.T) {
	if tr := NewTrace("client-id_42.a"); tr.ID != "client-id_42.a" {
		t.Errorf("valid ID not adopted: %q", tr.ID)
	}
	for _, bad := range []string{"", "short", "-leading-dash", ".leading-dot",
		"has space in it", "semi;colon-value", strings.Repeat("x", 65)} {
		tr := NewTrace(bad)
		if tr.ID == bad {
			t.Errorf("invalid ID %q adopted verbatim", bad)
		}
		if !ValidRequestID(tr.ID) {
			t.Errorf("minted ID %q is not itself valid", tr.ID)
		}
	}
	a, b := MintRequestID(), MintRequestID()
	if a == b {
		t.Error("two minted IDs collide")
	}
	if !ValidRequestID(a) || len(a) != 32 {
		t.Errorf("minted ID %q: want 32 valid characters", a)
	}
}

// TestWriteChromeAndBreakdown: a trace renders as a loadable Chrome
// trace-event document — spans on thread 0 with their IDs, the cycle
// breakdown overlay on thread 1 with widths proportional to cycle
// shares and the actual counts in args.
func TestWriteChromeAndBreakdown(t *testing.T) {
	tr := NewTrace("")
	now := time.Now()
	tr.Add("measure", now, 10*time.Millisecond)
	tr.Finish()

	var b Breakdown
	b[CauseIssued] = 3000
	b[CauseICache] = 1000

	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, nil, TraceOptions{Format: FormatChrome})
	if err != nil {
		t.Fatal(err)
	}
	tr.WriteChrome(tw)
	ChromeBreakdown(tw, &b, 0, 10*time.Millisecond)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			TS   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			Tid  int              `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome document does not parse: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	var simDur, simCycles int64
	for _, ev := range doc.TraceEvents {
		byName[ev.Name]++
		if ev.Ph != "X" {
			t.Errorf("event %q: ph=%q, want X", ev.Name, ev.Ph)
		}
		if strings.HasPrefix(ev.Name, "sim:") {
			if ev.Tid != 1 {
				t.Errorf("breakdown event %q on tid %d, want 1", ev.Name, ev.Tid)
			}
			simDur += ev.Dur
			simCycles += ev.Args["cycles"]
		} else if ev.Tid != 0 {
			t.Errorf("span event %q on tid %d, want 0", ev.Name, ev.Tid)
		}
	}
	if byName["request"] != 1 || byName["measure"] != 1 {
		t.Errorf("span events missing: %v", byName)
	}
	if byName["sim:issue"] != 1 || byName["sim:icache_miss"] != 1 || simCycles != 4000 {
		t.Errorf("breakdown overlay = %v with %d cycles, want sim:issue, sim:icache_miss, 4000", byName, simCycles)
	}
	if simDur > 10*time.Millisecond.Microseconds() {
		t.Errorf("overlay spans %dus, wider than the 10ms window", simDur)
	}
}

// TestAccessLogger: one JSON object per line with the documented field
// names; a nil logger accepts records and drops them.
func TestAccessLogger(t *testing.T) {
	var nilLogger *AccessLogger
	if nilLogger.Enabled() {
		t.Error("nil logger claims enabled")
	}
	if err := nilLogger.Log(AccessRecord{}); err != nil {
		t.Errorf("nil logger errored: %v", err)
	}

	var buf bytes.Buffer
	l := NewAccessLogger(&buf)
	rec := AccessRecord{
		RequestID:   "req-12345678",
		Method:      "GET",
		Path:        "/v1/cell",
		Status:      200,
		Bytes:       512,
		DurationMS:  1.25,
		Cache:       "hit",
		RejectLayer: "",
		StagesMS:    map[string]float64{"mem": 0.05},
	}
	if err := l.Log(rec); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("record is not one line: %q", line)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("line does not parse: %v", err)
	}
	if got["request_id"] != "req-12345678" || got["cache"] != "hit" {
		t.Errorf("fields lost: %v", got)
	}
	if _, ok := got["reject_layer"]; ok {
		t.Error("empty reject_layer should be omitted")
	}
	if _, ok := got["time"]; !ok {
		t.Error("time not stamped")
	}
	if stages, ok := got["stages_ms"].(map[string]any); !ok || stages["mem"] != 0.05 {
		t.Errorf("stages_ms = %v", got["stages_ms"])
	}

	// Concurrent logging keeps lines whole.
	buf.Reset()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Log(AccessRecord{RequestID: "concurrent-1", Method: "GET"})
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 16 {
		t.Fatalf("got %d lines, want 16", len(lines))
	}
	for _, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &got); err != nil {
			t.Errorf("interleaved line %q: %v", ln, err)
		}
	}
}
