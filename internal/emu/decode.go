package emu

import (
	"fmt"

	"predication/internal/ir"
)

// decode.go lowers an ir.Program into the flat micro-op array the fast
// interpreter executes.  The decode pass runs once per program and resolves
// everything the tree-walking interpreter re-derived on every step:
//
//   - operands become indices into an extended register file whose tail
//     holds the function's immediate pool, so every operand read is one
//     unconditional array load (no ir.Operand dispatch, no reg-vs-imm
//     branch),
//   - compare kinds are extracted from the opcode once (no
//     CompareCmp/BranchCmp calls in the loop),
//   - every control edge — instruction fall-through, block fall-through
//     (including chains of empty blocks), branch target, function entry,
//     and JSR return point — becomes a pre-resolved uop index plus the
//     profile counters a walk of the block graph bumps on the way.
//
// The uop struct itself is kept under one cache line so the steady-state
// loop stays memory-light; everything the loop needs only
// off the hot path (predicate-define destinations, error locations, JSR
// callees, profile edge lists) lives in parallel side tables indexed by
// the same uop index.  A uop's index in Code.uops is also its
// program-wide instruction ID (layout order, ir.Program.ForEachInstr),
// which Event.ID exposes to sinks.

// edgeKind classifies how traversing a control edge terminates.
type edgeKind uint8

const (
	// edgeOK: execution continues at edge.pc.
	edgeOK edgeKind = iota
	// edgeDead: the transfer targets a dead or missing block.
	edgeDead
	// edgeFellOff: a block (possibly reached through an empty-block
	// chain) has no fall-through successor.
	edgeFellOff
)

// edge is a fully resolved control transfer.  chain and exits carry the
// dense block indices whose BlockCount and FallExit profile counters a
// walk of the same path increments.  Edges are
// consulted only when profiling or when the transfer errors; the
// no-profile success case reads the pre-resolved pc straight from the
// uop.
type edge struct {
	pc     int32 // destination uop index (valid when kind == edgeOK)
	kind   edgeKind
	errBlk int32 // block named by the dead/fell-off error
	fn     int32 // owning function, for error messages
	chain  []int32
	exits  []int32
}

// uop flag bits.
const (
	ufSilent uint8 = 1 << iota // Instr.Silent: suppress exceptions
	ufIsBr                     // Op.IsBranch()
)

// uop is one pre-decoded instruction, 48 bytes.  a, b, c index the
// frame's extended register file: slots below the function's NextReg are
// the architectural registers (slot 0, ir.RNone, is never written and
// reads as zero), and slots at or above NextReg hold the function's
// deduplicated immediates (fnInfo.pool), copied in at frame setup.  Every
// operand read is therefore regs[u.x] with no reg-vs-imm branch.  fallPC
// and takenPC are the destination uop indices of the fall-through and
// taken edges, or -1 when the edge cannot complete (dead target / fell
// off end) and the edge table must be consulted for the error.  pdef
// packs both PredDef destinations (see packPredDest).
type uop struct {
	pdef    uint64
	guard   int32 // predicate register, 0 (ir.PNone) = unguarded
	dst     int32
	a       int32
	b       int32
	c       int32
	fallPC  int32
	takenPC int32
	op      ir.Op
	cmp     ir.Cmp
	flags   uint8
}

// packPredDest packs a PredDef's two destination slots into one word:
// [63:56] P1.Type, [55:32] P1.P, [31:24] P2.Type, [23:0] P2.P.  Decode
// rejects programs with 2^24 or more predicate registers per function, so
// the 24-bit fields cannot truncate.
func packPredDest(p1, p2 ir.PredDest) uint64 {
	return uint64(p1.Type)<<56 | uint64(uint32(p1.P)&0xffffff)<<32 |
		uint64(p2.Type)<<24 | uint64(uint32(p2.P)&0xffffff)
}

// uopMeta is the cold per-uop state: error-report location and the JSR
// callee.
type uopMeta struct {
	fn     int32 // function index
	blk    int32 // source block ID
	idx    int32 // index within the source block
	target int32 // callee function index (JSR only)
}

// fnInfo is the per-function state the fast path needs at call time.  A
// frame's register file has nTotal slots: the first nRegs are the
// architectural registers (zeroed), the rest are initialized from pool
// (the function's deduplicated immediates).
type fnInfo struct {
	entry   edge
	pool    []int64
	entryPC int32 // entry.pc fast path (-1: consult entry edge)
	nRegs   int32
	nTotal  int32
	nPreds  int32
}

// Code is a program decoded for the fast interpreter.  It is immutable
// after Decode and safe for concurrent Run calls.
type Code struct {
	prog   *ir.Program
	uops   []uop
	instrs []*ir.Instr // uop index -> source instruction (profile keys, errors)
	meta   []uopMeta   // uop index -> cold state
	fall   []int32     // uop index -> edge index (-1: plain mid-block fall)
	taken  []int32     // uop index -> edge index (-1: not a jump/branch)
	edges  []edge
	fns    []fnInfo
	blocks []*ir.Block // dense block index -> block (profile conversion)
}

// NumUops returns the static instruction count of the decoded program.
func (c *Code) NumUops() int { return len(c.uops) }

type decoder struct {
	p     *ir.Program
	c     *Code
	start [][]int32 // [fi][blockID] -> first uop index (-1: empty or dead)
	dense [][]int32 // [fi][blockID] -> dense block index (-1: dead)
	err   error
}

// Decode lowers p into a flat code array.  It fails on structural problems
// a block-graph walk could only hit (or hang on) at run time: a missing
// entry function, a JSR to an undefined function, or a cycle of empty
// blocks.  Transfers to dead blocks and fall-through off the end of a
// block stay run-time errors, because they only matter if executed.
func Decode(p *ir.Program) (*Code, error) {
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		return nil, fmt.Errorf("emu: decode: entry function F%d out of range", p.Entry)
	}
	c := &Code{prog: p}
	d := &decoder{p: p, c: c}

	// Pass 1: lay out uop indices and dense block numbers.
	var nU int32
	for fi, f := range p.Funcs {
		st := make([]int32, len(f.Blocks))
		dn := make([]int32, len(f.Blocks))
		for i := range st {
			st[i], dn[i] = -1, -1
		}
		for _, b := range f.Blocks {
			if b == nil || b.Dead {
				continue
			}
			dn[b.ID] = int32(len(c.blocks))
			c.blocks = append(c.blocks, b)
			if len(b.Instrs) > 0 {
				st[b.ID] = nU
				nU += int32(len(b.Instrs))
			}
		}
		d.start = append(d.start, st)
		d.dense = append(d.dense, dn)
		if fi == p.Entry && (f.Entry < 0 || f.Entry >= len(f.Blocks)) {
			return nil, fmt.Errorf("emu: decode: entry block B%d out of range in %s", f.Entry, f.Name)
		}
		if f.NextPReg >= 1<<24 {
			return nil, fmt.Errorf("emu: decode: %s has %d predicate registers, packed PredDef slots hold 24 bits", f.Name, f.NextPReg)
		}
	}
	c.uops = make([]uop, nU)
	c.meta = make([]uopMeta, nU)
	c.fall = make([]int32, nU)
	c.taken = make([]int32, nU)
	c.instrs = make([]*ir.Instr, 0, nU)

	// Pass 2: fill operands and resolve edges.
	for fi, f := range p.Funcs {
		// The function's immediate pool: distinct immediates become extra
		// register-file slots after the architectural registers.
		poolIx := map[int64]int32{}
		var pool []int64
		opIx := func(o ir.Operand) int32 {
			if !o.IsImm {
				return int32(o.R)
			}
			if i, ok := poolIx[o.Imm]; ok {
				return i
			}
			i := int32(f.NextReg) + int32(len(pool))
			pool = append(pool, o.Imm)
			poolIx[o.Imm] = i
			return i
		}
		for _, b := range f.Blocks {
			if b == nil || b.Dead || len(b.Instrs) == 0 {
				continue
			}
			base := d.start[fi][b.ID]
			for i, in := range b.Instrs {
				pc := base + int32(i)
				u := &c.uops[pc]
				c.instrs = append(c.instrs, in)
				u.op = in.Op
				if in.Silent {
					u.flags |= ufSilent
				}
				if in.Op.IsBranch() {
					u.flags |= ufIsBr
				}
				u.guard = int32(in.Guard)
				u.dst = int32(in.Dst)
				u.a = opIx(in.A)
				u.b = opIx(in.B)
				u.c = opIx(in.C)
				u.pdef = packPredDest(in.P1, in.P2)
				c.meta[pc] = uopMeta{fn: int32(fi), blk: int32(b.ID), idx: int32(i)}
				switch {
				case in.Op == ir.PredDef:
					u.cmp = in.Cmp
				case in.Op.IsCondBranch():
					u.cmp, _ = ir.BranchCmp(in.Op)
				default:
					if cmp, ok := ir.CompareCmp(in.Op); ok {
						u.cmp = cmp
					}
				}
				c.taken[pc] = -1
				u.takenPC = -1
				if i+1 < len(b.Instrs) {
					// Plain mid-block fall: no counters, never errors.
					u.fallPC = pc + 1
					c.fall[pc] = -1
				} else {
					e := d.blockEndEdge(fi, b)
					u.fallPC = e.pc
					c.fall[pc] = c.addEdge(e)
				}
				switch {
				case in.Op == ir.JSR:
					if in.Target < 0 || in.Target >= len(p.Funcs) {
						return nil, fmt.Errorf("emu: decode: jsr to undefined function F%d in %s B%d[%d]", in.Target, f.Name, b.ID, i)
					}
					c.meta[pc].target = int32(in.Target)
				case in.Op == ir.Jump || in.Op.IsCondBranch():
					e := d.transferEdge(fi, in.Target)
					u.takenPC = e.pc
					c.taken[pc] = c.addEdge(e)
				}
			}
		}
		entry := d.transferEdge(fi, f.Entry)
		c.fns = append(c.fns, fnInfo{
			entry:   entry,
			pool:    pool,
			entryPC: entry.pc,
			nRegs:   int32(f.NextReg),
			nTotal:  int32(f.NextReg) + int32(len(pool)),
			nPreds:  int32(f.NextPReg),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	return c, nil
}

// addEdge interns an edge and returns its index.
func (c *Code) addEdge(e edge) int32 {
	c.edges = append(c.edges, e)
	return int32(len(c.edges) - 1)
}

// transferEdge resolves a control transfer to block `target`, walking
// through any chain of empty blocks: each block entered is appended to
// chain (BlockCount), each empty block fallen out of is appended to exits
// (FallExit), and the walk ends at the first block with instructions or
// at the dead / fell-off-end error execution would report.
func (d *decoder) transferEdge(fi int, target int) edge {
	f := d.p.Funcs[fi]
	e := edge{pc: -1, fn: int32(fi)}
	cur := target
	for hops := 0; ; hops++ {
		if hops > len(f.Blocks) {
			// Execution would spin forever here (empty blocks execute no
			// instructions, so the step limit never fires).
			d.err = fmt.Errorf("emu: decode: empty-block fall-through cycle from B%d in %s", target, f.Name)
			e.kind = edgeDead
			e.errBlk = int32(cur)
			return e
		}
		if cur < 0 || cur >= len(f.Blocks) || f.Blocks[cur] == nil || f.Blocks[cur].Dead {
			e.kind = edgeDead
			e.errBlk = int32(cur)
			return e
		}
		b := f.Blocks[cur]
		e.chain = append(e.chain, d.dense[fi][cur])
		if len(b.Instrs) > 0 {
			e.pc = d.start[fi][cur]
			return e
		}
		e.exits = append(e.exits, d.dense[fi][cur])
		if b.Fall < 0 {
			e.kind = edgeFellOff
			e.errBlk = int32(cur)
			return e
		}
		cur = b.Fall
	}
}

// blockEndEdge resolves falling out of the end of block b: FallExit on b
// itself, then either the fell-off-end error or the transfer to b.Fall.
func (d *decoder) blockEndEdge(fi int, b *ir.Block) edge {
	self := d.dense[fi][b.ID]
	if b.Fall < 0 {
		return edge{
			pc:     -1,
			kind:   edgeFellOff,
			errBlk: int32(b.ID),
			fn:     int32(fi),
			exits:  []int32{self},
		}
	}
	e := d.transferEdge(fi, b.Fall)
	e.exits = append([]int32{self}, e.exits...)
	return e
}

// edgeErr formats the run-time error for a dead or fell-off edge.
func (c *Code) edgeErr(e *edge) error {
	name := c.prog.Funcs[e.fn].Name
	if e.kind == edgeDead {
		return fmt.Errorf("emu: transfer to dead block B%d in %s", e.errBlk, name)
	}
	return fmt.Errorf("emu: fell off end of block B%d in %s", e.errBlk, name)
}
