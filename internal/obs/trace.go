package obs

import (
	"bufio"
	"fmt"
	"io"

	"predication/internal/emu"
	"predication/internal/ir"
)

// TraceFormat selects the structured trace encoding.
type TraceFormat string

// Supported trace encodings.
const (
	// FormatChrome is the Chrome trace-event JSON format: one complete
	// ("ph":"X") event per sampled dynamic instruction, loadable in
	// chrome://tracing and Perfetto.  The timeline unit is one emulated
	// step.
	FormatChrome TraceFormat = "chrome"
	// FormatJSONL is one self-contained JSON object per line per sampled
	// dynamic instruction, for jq/scripting pipelines.
	FormatJSONL TraceFormat = "jsonl"
)

// TraceOptions configures a TraceWriter.
type TraceOptions struct {
	// Format selects the encoding (default FormatChrome).
	Format TraceFormat
	// Sample keeps one of every Sample events (default 1 = every event).
	// Sampling is positional over the dynamic stream, so a run's trace is
	// deterministic.
	Sample int64
	// Limit stops emission after this many records (0 = unlimited).  The
	// sink keeps counting steps so record timestamps stay absolute.
	Limit int64
}

// TraceWriter renders the dynamic instruction stream as a structured
// trace.  It implements emu.BatchSink, so it can ride the same fanout as
// the timing simulator; it is only ever constructed when tracing is
// requested (-trace-out), leaving the zero-allocation emulation path
// untouched otherwise.  Callers must Close it to flush buffers and
// terminate the JSON document.
type TraceWriter struct {
	w       *bufio.Writer
	instrs  []*ir.Instr // event ID -> static instruction
	format  TraceFormat
	sample  int64
	limit   int64
	step    int64 // dynamic instructions seen
	emitted int64 // records written
	err     error
	closed  bool
}

// NewTraceWriter creates a trace writer for p's event stream writing to
// w.  Each event's opcode and code address are looked up by its ID in p's
// layout order (ir.Program.ForEachInstr).  A writer that renders only
// spans (Complete) takes a nil program.
func NewTraceWriter(w io.Writer, p *ir.Program, opt TraceOptions) (*TraceWriter, error) {
	if opt.Format == "" {
		opt.Format = FormatChrome
	}
	if opt.Format != FormatChrome && opt.Format != FormatJSONL {
		return nil, fmt.Errorf("obs: unknown trace format %q (want %q or %q)", opt.Format, FormatChrome, FormatJSONL)
	}
	if opt.Sample <= 0 {
		opt.Sample = 1
	}
	t := &TraceWriter{
		w:      bufio.NewWriterSize(w, 1<<16),
		format: opt.Format,
		sample: opt.Sample,
		limit:  opt.Limit,
	}
	if p != nil {
		p.ForEachInstr(func(_ int, in *ir.Instr) { t.instrs = append(t.instrs, in) })
	}
	if t.format == FormatChrome {
		_, t.err = t.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	}
	return t, nil
}

// EventBatch implements emu.BatchSink: it keeps one event in every
// Sample, up to Limit records.
func (t *TraceWriter) EventBatch(evs []emu.Event) {
	for i := range evs {
		step := t.step
		t.step++
		if t.err != nil || step%t.sample != 0 || (t.limit > 0 && t.emitted >= t.limit) {
			continue
		}
		t.emit(step, evs[i])
	}
}

// emit writes one record.  Opcode mnemonics contain no characters needing
// JSON escaping, so records are formatted directly.
func (t *TraceWriter) emit(step int64, ev emu.Event) {
	null, taken := 0, 0
	if ev.Nullified() {
		null = 1
	}
	if ev.Taken() {
		taken = 1
	}
	in := t.instrs[ev.ID]
	var err error
	switch t.format {
	case FormatChrome:
		comma := ","
		if t.emitted == 0 {
			comma = ""
		}
		_, err = fmt.Fprintf(t.w,
			`%s{"name":%q,"ph":"X","ts":%d,"dur":1,"pid":0,"tid":0,"args":{"id":%d,"pc":%d,"nullified":%d,"taken":%d,"addr":%d}}`,
			comma, in.Op.String(), step, ev.ID, in.Addr, null, taken, ev.Addr)
	case FormatJSONL:
		_, err = fmt.Fprintf(t.w,
			"{\"step\":%d,\"id\":%d,\"op\":%q,\"pc\":%d,\"nullified\":%d,\"taken\":%d,\"addr\":%d}\n",
			step, ev.ID, in.Op.String(), in.Addr, null, taken, ev.Addr)
	}
	if err != nil && t.err == nil {
		t.err = err
	}
	t.emitted++
}

// Steps returns the number of dynamic instructions seen.
func (t *TraceWriter) Steps() int64 { return t.step }

// Emitted returns the number of records written.
func (t *TraceWriter) Emitted() int64 { return t.emitted }

// Close terminates the document and flushes buffered output.  It reports
// the first error encountered at any point of the trace's life.
func (t *TraceWriter) Close() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.format == FormatChrome {
		if _, err := t.w.WriteString("]}\n"); err != nil && t.err == nil {
			t.err = err
		}
	}
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}
