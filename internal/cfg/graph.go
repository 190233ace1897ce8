// Package cfg provides control-flow-graph analyses over the IR: successor
// and predecessor maps, reverse postorder, dominators, natural loops,
// liveness, and the dynamic edge profile collected by the emulator.
package cfg

import (
	"slices"

	"predication/internal/ir"
)

// Graph is the control-flow graph of one function.  NewGraph and Rebuild
// compute it from the whole block structure; after a transformation that
// rewrites only a few blocks, Patch brings it up to date by touching only
// those blocks and their neighbours, so a pass that transforms a function
// region by region does work proportional to the regions, not to the
// function times the number of regions.
type Graph struct {
	F     *ir.Func
	Succs [][]int // block ID -> successor block IDs
	Preds [][]int // block ID -> predecessor block IDs, ascending

	// rank certifies reachability: -1 for unreachable blocks, and every
	// reachable block other than the entry has a predecessor of lower
	// rank.  A full walk ranks blocks by reverse-postorder position;
	// Patch ranks blocks it makes reachable after every existing rank.
	rank []int
	next int   // next fresh rank
	rpo  []int // reverse postorder over reachable blocks, as of the last walk
	// stale marks rpo (and possibly rank) as predating a Patch; the
	// methods that read them walk the graph again first.  unsure marks a
	// Patch that could not certify some block's reachability locally.
	stale, unsure bool

	// Scratch storage retained across Rebuild and Patch, so steady-state
	// rebuilds do not allocate.
	sbuf    []int
	pbuf    []int
	counts  []int
	visited []bool
	post    []int
	stack   []dfsFrame
	work    []int
}

type dfsFrame struct{ id, next int }

// NewGraph builds the CFG for f.
func NewGraph(f *ir.Func) *Graph {
	g := &Graph{F: f}
	g.build()
	return g
}

// Rebuild recomputes the graph for the function after a structural change,
// reusing the graph's storage.  All previously returned successor and
// predecessor slices are invalidated.
func (g *Graph) Rebuild() { g.build() }

// grow returns s resized to n elements, all zero, reusing its backing array
// when possible.  Fresh allocations carry headroom: formation passes add
// blocks between rebuilds, and reallocating every O(n) array on each rebuild
// is what this arena exists to avoid.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+16)
	}
	s = s[:n]
	clear(s)
	return s
}

// build computes the graph.  The successor and predecessor lists are carved
// out of two shared backing arrays (compressed-row layout) instead of one
// slice per block, and the postorder walk uses an explicit stack.
func (g *Graph) build() {
	f := g.F
	n := len(f.Blocks)
	g.Succs = grow(g.Succs, n)
	g.Preds = grow(g.Preds, n)

	// Successor lists: append into one shared backing array and carve
	// per-block windows out of it.  When the backing grows, windows carved
	// earlier keep the retired array alive, which is harmless.
	sbuf := g.sbuf[:0]
	if cap(sbuf) < 2*n+8 {
		sbuf = make([]int, 0, 3*n+16)
	}
	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		start := len(sbuf)
		sbuf = b.Succs(sbuf)
		g.Succs[b.ID] = sbuf[start:len(sbuf):len(sbuf)]
	}
	g.sbuf = sbuf

	// Predecessor lists, same layout: count, carve, fill.
	g.counts = grow(g.counts, n)
	total := 0
	for _, succs := range g.Succs {
		total += len(succs)
		for _, s := range succs {
			g.counts[s]++
		}
	}
	pbuf := g.pbuf[:0]
	if cap(pbuf) < total {
		pbuf = make([]int, 0, total+total/2+16)
	}
	for id, c := range g.counts {
		if c == 0 {
			continue
		}
		g.Preds[id] = pbuf[len(pbuf) : len(pbuf) : len(pbuf)+c]
		pbuf = pbuf[:len(pbuf)+c]
	}
	g.pbuf = pbuf
	for id, succs := range g.Succs {
		for _, s := range succs {
			g.Preds[s] = append(g.Preds[s], id)
		}
	}
	g.walk()
}

// walk recomputes the reverse postorder and the reachability ranks from
// the successor lists: a depth-first postorder from the entry, reversed.
// The explicit stack visits successors in list order, exactly like the
// recursive walk.
func (g *Graph) walk() {
	f := g.F
	n := len(g.Succs)
	g.visited = grow(g.visited, n)
	post := g.post[:0]
	if cap(post) < n {
		post = make([]int, 0, n+n/2+16)
	}
	stack := g.stack[:0]
	stack = append(stack, dfsFrame{f.Entry, 0})
	g.visited[f.Entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(g.Succs[fr.id]) {
			s := g.Succs[fr.id][fr.next]
			fr.next++
			if !g.visited[s] {
				g.visited[s] = true
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		post = append(post, fr.id)
		stack = stack[:len(stack)-1]
	}
	g.post = post
	g.stack = stack[:0]
	g.rpo = g.rpo[:0]
	if cap(g.rpo) < len(post) {
		g.rpo = make([]int, 0, len(post)+len(post)/2+16)
	}
	for i := len(post) - 1; i >= 0; i-- {
		g.rpo = append(g.rpo, post[i])
	}
	g.rank = grow(g.rank, n)
	for i := range g.rank {
		g.rank[i] = -1
	}
	for i, id := range g.rpo {
		g.rank[id] = i
	}
	g.next = len(g.rpo)
	g.stale, g.unsure = false, false
}

// fresh redoes the walk if a Patch has made the reverse postorder stale.
func (g *Graph) fresh() {
	if g.stale {
		g.walk()
	}
}

// RPO returns the reverse postorder over the reachable blocks.
func (g *Graph) RPO() []int {
	g.fresh()
	return g.rpo
}

// Reachable reports whether the block is reachable from the entry.
func (g *Graph) Reachable(id int) bool {
	if g.unsure {
		g.walk()
	}
	return g.rank[id] >= 0
}

// Patch updates the graph after the listed blocks changed: their
// instructions, fallthrough or Dead flag were rewritten, or f.NewBlock
// created them.  Only those blocks' successor lists are recomputed, and
// only the predecessor lists of blocks gaining or losing an edge from them
// change, so the cost is proportional to the patched blocks.  Afterwards
// Succs, Preds (order included) and Reachable answer exactly as a fresh
// NewGraph would.  Blocks whose edges changed must all be listed.
//
// Reachability is kept by rank (see Graph): a block reached through a new
// edge is ranked after every existing block, and a block that lost an
// edge stays certified if a predecessor of lower rank remains.  Only when
// neither settles a block (a cycle may have lost its last entry) does the
// next Reachable query walk the graph again.
func (g *Graph) Patch(ids ...int) {
	f := g.F
	for len(g.Succs) < len(f.Blocks) {
		g.Succs = append(g.Succs, nil)
		g.Preds = append(g.Preds, nil)
		g.rank = append(g.rank, -1)
	}
	g.stale = true
	// gained holds the new edges as (from, to) pairs; lost holds the
	// targets of removed ones.
	gained := g.work[:0]
	var lost []int
	for _, id := range ids {
		b := f.Blocks[id]
		start := len(g.sbuf)
		if b != nil && !b.Dead {
			g.sbuf = b.Succs(g.sbuf)
		}
		succs := g.sbuf[start:len(g.sbuf):len(g.sbuf)]
		old := g.Succs[id]
		for _, s := range old {
			if !slices.Contains(succs, s) {
				g.Preds[s] = removeID(g.Preds[s], id)
				lost = append(lost, s)
			}
		}
		for _, s := range succs {
			if !slices.Contains(old, s) {
				g.Preds[s] = insertID(g.Preds[s], id)
				gained = append(gained, id, s)
			}
		}
		g.Succs[id] = succs
	}
	for i := 0; i < len(gained); i += 2 {
		if g.rank[gained[i]] >= 0 && g.rank[gained[i+1]] < 0 {
			g.reach(gained[i+1])
		}
	}
	// Settle the blocks that lost an edge: certified by a lower-ranked
	// predecessor, or unreachable when no predecessor is reachable (which
	// unsettles their successors in turn).
	for len(lost) > 0 && !g.unsure {
		s := lost[len(lost)-1]
		lost = lost[:len(lost)-1]
		if s == f.Entry || g.rank[s] < 0 {
			continue
		}
		certified, reached := false, false
		for _, p := range g.Preds[s] {
			if g.rank[p] >= 0 {
				reached = true
				certified = certified || g.rank[p] < g.rank[s]
			}
		}
		switch {
		case certified:
		case reached:
			g.unsure = true
		default:
			g.rank[s] = -1
			lost = append(lost, g.Succs[s]...)
		}
	}
	g.work = gained[:0]
}

// reach ranks s and every unranked block reachable from it.
func (g *Graph) reach(s int) {
	stack := []int{s}
	g.rank[s] = g.next
	g.next++
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range g.Succs[x] {
			if g.rank[t] < 0 {
				g.rank[t] = g.next
				g.next++
				stack = append(stack, t)
			}
		}
	}
}

// removeID deletes id from the ascending list s in place.
func removeID(s []int, id int) []int {
	if i, ok := slices.BinarySearch(s, id); ok {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// insertID adds id to the ascending list s, keeping it sorted.  A list
// carved out of the shared backing array is full, so the first insertion
// moves it to its own array.
func insertID(s []int, id int) []int {
	i, _ := slices.BinarySearch(s, id)
	return slices.Insert(s, i, id)
}

// Dominators computes the immediate-dominator array using the
// Cooper/Harvey/Kennedy iterative algorithm.  idom[entry] == entry;
// unreachable blocks have idom -1.
func (g *Graph) Dominators() []int {
	g.fresh()
	n := len(g.Succs)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[g.F.Entry] = g.F.Entry
	intersect := func(a, b int) int {
		for a != b {
			for g.rank[a] > g.rank[b] {
				a = idom[a]
			}
			for g.rank[b] > g.rank[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.rpo {
			if id == g.F.Entry {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds[id] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the given idom array.
func Dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		if idom[b] == b || idom[b] == -1 {
			return false
		}
		b = idom[b]
	}
}

// Loop is a natural loop: the header plus the set of body blocks (including
// the header).
type Loop struct {
	Header int
	Blocks map[int]bool
	// Backedges lists the source blocks of the loop's back edges.
	Backedges []int
}

// NaturalLoops finds all natural loops (back edges whose target dominates
// the source), merging loops that share a header.  Inner loops come first in
// the returned slice (ordered by ascending body size, then header ID).
func (g *Graph) NaturalLoops() []*Loop {
	idom := g.Dominators()
	byHeader := map[int]*Loop{}
	for _, b := range g.rpo {
		for _, s := range g.Succs[b] {
			if !Dominates(idom, s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[int]bool{s: true}}
				byHeader[s] = l
			}
			l.Backedges = append(l.Backedges, b)
			// Collect the natural loop body: blocks reaching the back edge
			// source without passing through the header.
			stack := []int{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, p := range g.Preds[x] {
					if g.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(byHeader))
	for _, l := range byHeader {
		loops = append(loops, l)
	}
	// Ascending body size: inner loops first.  Equal sizes go by header ID,
	// so the order, and everything formed from it, is the same every run.
	slices.SortFunc(loops, func(a, b *Loop) int {
		if d := len(a.Blocks) - len(b.Blocks); d != 0 {
			return d
		}
		return a.Header - b.Header
	})
	return loops
}
