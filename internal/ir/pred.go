package ir

import (
	"fmt"
	"math"
	"strconv"
)

// PReg names a 1-bit predicate register.  PNone (0) denotes "no predicate":
// an instruction guarded by PNone always executes.  Real predicate registers
// are numbered from 1.
type PReg int32

// PNone is the absent predicate; a guard of PNone means "always execute".
const PNone PReg = 0

// String returns the assembly name of the predicate register.
func (p PReg) String() string { return string(p.appendTo(nil)) }

func (p PReg) appendTo(dst []byte) []byte {
	if p == PNone {
		return append(dst, "p_true"...)
	}
	return strconv.AppendInt(append(dst, 'p'), int64(p), 10)
}

// PredType selects the destination-update rule of a predicate define
// instruction, following the HPL Playdoh semantics reproduced in Table 1 of
// the paper.  For each combination of the input predicate Pin and the
// comparison result, the destination predicate is written with 1, written
// with 0, or left unchanged.
type PredType uint8

const (
	// PredNone marks an unused predicate destination slot.
	PredNone PredType = iota
	// PredU is the unconditional type: always written.  Pin=1 writes the
	// comparison result; Pin=0 writes 0.
	PredU
	// PredUBar is the complement unconditional type: Pin=1 writes the
	// complemented comparison result; Pin=0 writes 0.
	PredUBar
	// PredOR writes 1 when Pin=1 and the comparison is true; otherwise the
	// destination is unchanged.  OR-type destinations must be explicitly
	// cleared before use; multiple OR-type defines of the same register may
	// then issue simultaneously and in any order (wired-OR property).
	PredOR
	// PredORBar writes 1 when Pin=1 and the comparison is false; otherwise
	// unchanged.
	PredORBar
	// PredAND writes 0 when Pin=1 and the comparison is false; otherwise
	// unchanged.  Used for control height reduction.
	PredAND
	// PredANDBar writes 0 when Pin=1 and the comparison is true; otherwise
	// unchanged.
	PredANDBar
)

// String returns the Playdoh type suffix.
func (t PredType) String() string {
	switch t {
	case PredNone:
		return "-"
	case PredU:
		return "U"
	case PredUBar:
		return "U~"
	case PredOR:
		return "OR"
	case PredORBar:
		return "OR~"
	case PredAND:
		return "AND"
	case PredANDBar:
		return "AND~"
	}
	return "?"
}

// Eval implements Table 1 of the paper: given the input predicate value and
// the comparison result, it returns the new destination value and whether
// the destination is written at all.
func (t PredType) Eval(pin, cmp bool) (value, written bool) {
	switch t {
	case PredU:
		if !pin {
			return false, true
		}
		return cmp, true
	case PredUBar:
		if !pin {
			return false, true
		}
		return !cmp, true
	case PredOR:
		if pin && cmp {
			return true, true
		}
		return false, false
	case PredORBar:
		if pin && !cmp {
			return true, true
		}
		return false, false
	case PredAND:
		if pin && !cmp {
			return false, true
		}
		return false, false
	case PredANDBar:
		if pin && cmp {
			return false, true
		}
		return false, false
	}
	return false, false
}

// Complement returns the predicate type computing the complementary
// condition (U<->U~, OR<->OR~, AND<->AND~).
func (t PredType) Complement() PredType {
	switch t {
	case PredU:
		return PredUBar
	case PredUBar:
		return PredU
	case PredOR:
		return PredORBar
	case PredORBar:
		return PredOR
	case PredAND:
		return PredANDBar
	case PredANDBar:
		return PredAND
	}
	return PredNone
}

// NeedsClear reports whether destinations of this type must be initialized
// to 0 before the define executes (OR-type semantics only ever set bits).
func (t PredType) NeedsClear() bool { return t == PredOR || t == PredORBar }

// NeedsSet reports whether destinations of this type must be initialized to
// 1 before the define executes (AND-type semantics only ever clear bits).
func (t PredType) NeedsSet() bool { return t == PredAND || t == PredANDBar }

// PredDest is one destination slot of a predicate define instruction.
type PredDest struct {
	P    PReg
	Type PredType
}

// appendTo appends the destination in assembly form, e.g. p3_U~.
func (d PredDest) appendTo(dst []byte) []byte {
	dst = append(d.P.appendTo(dst), '_')
	return append(dst, d.Type.String()...)
}

// EvalCmp evaluates a comparison kind on two register values.  Values are
// int64; float comparisons reinterpret the bits as float64.
func EvalCmp(c Cmp, a, b int64) bool {
	switch c {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	case GE:
		return a >= b
	}
	fa, fb := math.Float64frombits(uint64(a)), math.Float64frombits(uint64(b))
	switch c {
	case EQF:
		return fa == fb
	case NEF:
		return fa != fb
	case LTF:
		return fa < fb
	case LEF:
		return fa <= fb
	case GTF:
		return fa > fb
	case GEF:
		return fa >= fb
	}
	panic(fmt.Sprintf("ir: EvalCmp: invalid comparison kind %d", uint8(c)))
}
