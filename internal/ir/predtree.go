package ir

// PredTree is a logical analysis of the predicates defined in one linear
// block.  A predicate participates when it is written exactly once, by a U
// or U-complement destination; its execution condition is then the
// conjunction of its define's comparison (or complement) with the define's
// own guard, giving every such predicate a path through a tree of
// conditions rooted at "always true".
//
// The tree answers Disjoint(p, q): p and q can never be true together
// (their paths diverge at a common define on opposite comparison sides),
// which lets the scheduler ignore dependences between instructions
// guarded by sibling paths of an if-converted diamond or switch.
type PredTree struct {
	nodes map[PReg]predTreeNode
}

type predTreeNode struct {
	def    *Instr
	negate bool // U-complement side
	parent PReg // the define's guard (PNone = tree root)
}

// BuildPredTree analyzes the block's instruction list.
func BuildPredTree(instrs []*Instr) *PredTree {
	writes := map[PReg]int{}
	var pBuf [2]PReg
	for _, in := range instrs {
		for _, p := range in.PredDefs(pBuf[:0]) {
			writes[p]++
		}
	}
	t := &PredTree{nodes: map[PReg]predTreeNode{}}
	for _, in := range instrs {
		if in.Op != PredDef {
			continue
		}
		for _, pd := range []PredDest{in.P1, in.P2} {
			switch pd.Type {
			case PredU, PredUBar:
				if writes[pd.P] == 1 {
					t.nodes[pd.P] = predTreeNode{def: in, negate: pd.Type == PredUBar, parent: in.Guard}
				}
			}
		}
	}
	return t
}

// PathStep is one edge of a predicate's condition path: which define, and
// which side of its comparison.
type PathStep struct {
	Def    *Instr
	Negate bool
}

// Path returns the root-to-p sequence of condition steps, or nil when p is
// not entirely within the tree.  PNone yields an empty (non-nil) path.
func (t *PredTree) Path(p PReg) []PathStep {
	if p == PNone {
		return []PathStep{}
	}
	var rev []PathStep
	for p != PNone {
		n, ok := t.nodes[p]
		if !ok {
			return nil
		}
		rev = append(rev, PathStep{n.def, n.negate})
		p = n.parent
		if len(rev) > 64 {
			return nil // cycle guard (malformed input)
		}
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// Disjoint reports whether predicates p and q are provably mutually
// exclusive.
func (t *PredTree) Disjoint(p, q PReg) bool {
	pp, pq := t.Path(p), t.Path(q)
	if pp == nil || pq == nil || len(pp) == 0 || len(pq) == 0 {
		return false
	}
	for i := 0; i < len(pp) && i < len(pq); i++ {
		if pp[i].Def != pq[i].Def {
			return false // paths diverged without a shared decision
		}
		if pp[i].Negate != pq[i].Negate {
			return true // opposite sides of the same comparison
		}
	}
	return false // one path is a prefix of the other
}
