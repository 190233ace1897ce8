package ir

import "testing"

// chain builds the canonical if-converted switch chain:
//
//	pred_eq pA_U,  pN1_U~, r1, 10
//	pred_eq pB_U,  pN2_U~, r1, 20 (pN1)
//	pred_eq pC_U,  pN3_U~, r1, 30 (pN2)
//
// pA, pB, pC are the arm predicates; pN* the continue-chain predicates.
func chain() ([]*Instr, []PReg) {
	pa, n1 := PReg(1), PReg(2)
	pb, n2 := PReg(3), PReg(4)
	pc, n3 := PReg(5), PReg(6)
	ins := []*Instr{
		NewPredDef(EQ, PredDest{pa, PredU}, PredDest{n1, PredUBar}, R(1), Imm(10), PNone),
		NewPredDef(EQ, PredDest{pb, PredU}, PredDest{n2, PredUBar}, R(1), Imm(20), n1),
		NewPredDef(EQ, PredDest{pc, PredU}, PredDest{n3, PredUBar}, R(1), Imm(30), n2),
	}
	return ins, []PReg{pa, pb, pc, n1, n2, n3}
}

func TestPredTreeDisjointChain(t *testing.T) {
	ins, ps := chain()
	tr := BuildPredTree(ins)
	pa, pb, pc, n1, n2 := ps[0], ps[1], ps[2], ps[3], ps[4]
	// Switch arms are pairwise disjoint.
	for _, pair := range [][2]PReg{{pa, pb}, {pa, pc}, {pb, pc}, {pa, n1}, {pb, n2}} {
		if !tr.Disjoint(pair[0], pair[1]) {
			t.Errorf("%v and %v must be disjoint", pair[0], pair[1])
		}
		if !tr.Disjoint(pair[1], pair[0]) {
			t.Errorf("disjoint must be symmetric for %v", pair)
		}
	}
	// A predicate is never disjoint from itself or its own prefix.
	if tr.Disjoint(pa, pa) {
		t.Error("self-disjoint")
	}
	if tr.Disjoint(pb, n1) {
		t.Error("pb implies n1; they are not disjoint")
	}
}

// TestPredTreeExcludesMultiWrite: predicates written twice (or by OR-type
// deposits) are not tree members and yield no facts.
func TestPredTreeExcludesMultiWrite(t *testing.T) {
	p1, p2 := PReg(1), PReg(2)
	ins := []*Instr{
		NewPredDef(EQ, PredDest{p1, PredU}, PredDest{p2, PredUBar}, R(1), Imm(0), PNone),
		NewPredDef(NE, PredDest{p1, PredU}, PredDest{}, R(2), Imm(0), PNone), // second write of p1
	}
	tr := BuildPredTree(ins)
	if tr.Disjoint(p1, p2) {
		t.Error("multi-written predicate must not participate")
	}
	orIns := []*Instr{
		NewPredDef(EQ, PredDest{p1, PredOR}, PredDest{}, R(1), Imm(0), PNone),
		NewPredDef(EQ, PredDest{p2, PredU}, PredDest{}, R(1), Imm(1), PNone),
	}
	tr2 := BuildPredTree(orIns)
	if tr2.Disjoint(p1, p2) {
		t.Error("OR-type destination must not participate")
	}
}

// TestPredTreeSemantics validates Disjoint against brute-force
// evaluation of all input combinations on the chain.
func TestPredTreeSemantics(t *testing.T) {
	ins, ps := chain()
	tr := BuildPredTree(ins)
	// Evaluate predicate values for every r1 value of interest.
	eval := func(r1 int64) map[PReg]bool {
		vals := map[PReg]bool{}
		pin := func(p PReg) bool {
			if p == PNone {
				return true
			}
			return vals[p]
		}
		for _, in := range ins {
			c := EvalCmp(in.Cmp, r1, in.B.Imm)
			for _, pd := range []PredDest{in.P1, in.P2} {
				if v, w := pd.Type.Eval(pin(in.Guard), c); w {
					vals[pd.P] = v
				}
			}
		}
		return vals
	}
	var worlds []map[PReg]bool
	for _, r1 := range []int64{10, 20, 30, 99} {
		worlds = append(worlds, eval(r1))
	}
	for _, p := range ps {
		for _, q := range ps {
			coTrue := false
			for _, w := range worlds {
				if w[p] && w[q] {
					coTrue = true
				}
			}
			if tr.Disjoint(p, q) && coTrue {
				t.Errorf("Disjoint(%v,%v) claimed but both true in some world", p, q)
			}
		}
	}
}
