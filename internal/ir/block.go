package ir

// Block is a straight-line sequence of instructions.  Before hyperblock or
// superblock formation a Block is an ordinary basic block whose only branch
// is its final instruction.  After formation, blocks may contain predicated
// exit branches anywhere in the instruction list: control falls through a
// not-taken (or nullified) branch to the next instruction.
//
// A block ends either with an unconditional control transfer (Jump, Ret,
// Halt, or an always-taken structure) or by falling through to the block
// named by Fall.
type Block struct {
	// ID is the block's stable identity within its function; branch targets
	// refer to IDs.  IDs index Func.Blocks and never change once assigned.
	ID int

	Instrs []*Instr

	// Fall is the fallthrough successor block ID, or -1 when the block
	// cannot fall through (last instruction is an unconditional Jump, Ret,
	// or Halt).
	Fall int

	// Dead marks blocks removed by transformation passes.  Dead blocks stay
	// in Func.Blocks so IDs remain stable, but are skipped by layout,
	// verification and execution.
	Dead bool

	// Name optionally labels the block for diagnostics (entry, loop, ...).
	Name string
}

// Append adds instructions to the end of the block.
func (b *Block) Append(ins ...*Instr) { b.Instrs = append(b.Instrs, ins...) }

// InsertAt inserts an instruction at position i.
func (b *Block) InsertAt(i int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// RemoveAt deletes the instruction at position i.
func (b *Block) RemoveAt(i int) {
	copy(b.Instrs[i:], b.Instrs[i+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
}

// Terminator returns the final instruction, or nil for an empty block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return b.Instrs[len(b.Instrs)-1]
}

// EndsUnconditionally reports whether control can never fall through the end
// of the block (the terminator is an unguarded Jump, Ret or Halt).
func (b *Block) EndsUnconditionally() bool {
	t := b.Terminator()
	if t == nil {
		return false
	}
	switch t.Op {
	case Jump, Ret, Halt:
		return t.Guard == PNone
	}
	return false
}

// Succs appends the IDs of all possible successor blocks (branch targets in
// instruction order, then the fallthrough) to dst and returns it.  Ret and
// Halt contribute no successors; JSR control returns to the next
// instruction, so it does not end the block.
func (b *Block) Succs(dst []int) []int {
	start := len(dst)
	for _, in := range b.Instrs {
		switch in.Op {
		case Jump, BrEQ, BrNE, BrLT, BrLE, BrGT, BrGE:
			dst = addSucc(dst, start, in.Target)
		}
	}
	if !b.EndsUnconditionally() {
		dst = addSucc(dst, start, b.Fall)
	}
	return dst
}

// addSucc appends id to dst unless negative or already present past start.
func addSucc(dst []int, start, id int) []int {
	if id < 0 {
		return dst
	}
	for _, s := range dst[start:] {
		if s == id {
			return dst
		}
	}
	return append(dst, id)
}
