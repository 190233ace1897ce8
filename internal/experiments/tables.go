package experiments

import (
	"fmt"
	"strings"

	"predication/internal/core"
	"predication/internal/obs"
)

// Table is a rendered result table: a title, column headers, and rows.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

// gapCell tags a matrix cell whose measurement failed (see Suite.Errors).
const gapCell = "n/a"

// meanCell renders a suite mean, or a gap when no benchmark measured it:
// the means average positive ratios, so they are 0 only then.
func meanCell(format string, mean float64) string {
	if mean == 0 {
		return gapCell
	}
	return fmt.Sprintf(format, mean)
}

// speedupFigure renders one of the paper's speedup figures.  Failed cells
// render as tagged gaps and are excluded from the means.
func (s *Suite) speedupFigure(title, cfg string) *Table {
	t := &Table{
		Title:   title,
		Headers: []string{"Benchmark", "Superblock", "Cond. Move", "Full Pred."},
	}
	for _, r := range s.Results {
		row := []string{r.Name}
		for _, m := range Models {
			if !r.HasSpeedup(m, cfg) {
				row = append(row, gapCell)
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", r.Speedup(m, cfg)))
		}
		t.Rows = append(t.Rows, row)
	}
	if len(s.Results) > 0 {
		row := []string{"mean"}
		for _, m := range Models {
			row = append(row, meanCell("%.2f", s.MeanSpeedup(m, cfg)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure8 is the 8-issue, 1-branch, perfect-cache speedup comparison.
func (s *Suite) Figure8() *Table {
	return s.speedupFigure("Figure 8: speedup, 8-issue 1-branch, perfect caches", "issue8-br1")
}

// Figure9 is the 8-issue, 2-branch, perfect-cache speedup comparison.
func (s *Suite) Figure9() *Table {
	return s.speedupFigure("Figure 9: speedup, 8-issue 2-branch, perfect caches", "issue8-br2")
}

// Figure10 is the 4-issue, 1-branch, perfect-cache speedup comparison.
func (s *Suite) Figure10() *Table {
	return s.speedupFigure("Figure 10: speedup, 4-issue 1-branch, perfect caches", "issue4-br1")
}

// Figure11 is the 8-issue, 1-branch speedup comparison with 64K
// instruction and data caches.
func (s *Suite) Figure11() *Table {
	return s.speedupFigure("Figure 11: speedup, 8-issue 1-branch, 64K I/D caches", "issue8-br1-64k")
}

// Table2 is the dynamic instruction count comparison (8-issue 1-branch
// code), with ratios to superblock in parentheses as in the paper.
func (s *Suite) Table2() *Table {
	t := &Table{
		Title:   "Table 2: dynamic instruction count comparison",
		Headers: []string{"Benchmark", "Superblk", "Cond. Move", "Full Pred."},
	}
	const cfg = "issue8-br1"
	for _, r := range s.Results {
		row := []string{r.Name, gapCell, gapCell, gapCell}
		if r.Has(core.Superblock, cfg) {
			base := r.Stat(core.Superblock, cfg).Instrs
			row[1] = fmtCount(base)
			for i, m := range Models[1:] {
				if r.Has(m, cfg) {
					n := r.Stat(m, cfg).Instrs
					row[2+i] = fmt.Sprintf("%s (%.2f)", fmtCount(n), float64(n)/float64(base))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	if len(s.Results) > 0 {
		t.Rows = append(t.Rows, []string{"mean ratio", "1.00",
			meanCell("(%.2f)", s.MeanInstrRatio(core.CondMove)), meanCell("(%.2f)", s.MeanInstrRatio(core.FullPred))})
	}
	return t
}

// Table3 is the branch statistics comparison: dynamic branches (BR),
// mispredictions (MP), and misprediction rate (MPR) per model on the
// 8-issue 1-branch configuration.
func (s *Suite) Table3() *Table {
	t := &Table{
		Title: "Table 3: branch statistics (8-issue 1-branch)",
		Headers: []string{"Benchmark",
			"SB BR", "SB MP", "SB MPR",
			"CM BR", "CM MP", "CM MPR",
			"FP BR", "FP MP", "FP MPR"},
	}
	for _, r := range s.Results {
		row := []string{r.Name}
		for _, m := range Models {
			if !r.Has(m, "issue8-br1") {
				row = append(row, gapCell, gapCell, gapCell)
				continue
			}
			st := r.Stat(m, "issue8-br1")
			row = append(row, fmtCount(st.Branches), fmtCount(st.Mispredicts),
				fmt.Sprintf("%.2f%%", 100*st.MispredictRate()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// BreakdownTable renders the stall-cycle decomposition of every benchmark
// and model on one configuration, as percentages of total cycles.  The
// suite must have run with Options.Observe; without accounts every cell is
// a gap.
func (s *Suite) BreakdownTable(cfg string) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Cycle breakdown (%s), %% of cycles", cfg),
		Headers: append([]string{"Benchmark", "Model", "Cycles"}, obs.CauseNames()...),
	}
	for _, r := range s.Results {
		for _, m := range Models {
			a, ok := r.Accounts[Key{m, cfg}]
			if !ok {
				continue
			}
			cycles := a.Breakdown.Total()
			row := []string{r.Name, m.String(), fmtCount(cycles)}
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				row = append(row, fmt.Sprintf("%.1f", 100*float64(a.Breakdown[c])/float64(cycles)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	if len(t.Rows) == 0 {
		t.Rows = append(t.Rows, []string{gapCell, "run with observability enabled", ""})
	}
	return t
}

// IPCTable renders raw and useful IPC (nullified instructions excluded)
// per benchmark and model on one configuration — the gap between the two
// columns is the fetch bandwidth full predication spends on nullified
// instructions.
func (s *Suite) IPCTable(cfg string) *Table {
	t := &Table{
		Title: fmt.Sprintf("IPC and useful IPC (%s)", cfg),
		Headers: []string{"Benchmark",
			"SB IPC", "SB useful",
			"CM IPC", "CM useful",
			"FP IPC", "FP useful"},
	}
	for _, r := range s.Results {
		row := []string{r.Name}
		for _, m := range Models {
			if !r.Has(m, cfg) {
				row = append(row, gapCell, gapCell)
				continue
			}
			st := r.Stat(m, cfg)
			row = append(row, fmt.Sprintf("%.2f", st.IPC()), fmt.Sprintf("%.2f", st.UsefulIPC()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// fmtCount renders a count the way the paper does (K/M suffixes).
func fmtCount(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 10_000:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// AllTables renders every figure and table in paper order.
func (s *Suite) AllTables() []*Table {
	return []*Table{s.Figure8(), s.Figure9(), s.Figure10(), s.Figure11(), s.Table2(), s.Table3()}
}

// CSV renders the table as comma-separated values for external plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	row(t.Headers)
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}
