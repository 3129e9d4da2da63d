package compile

import (
	"fmt"

	"bsisa/internal/ir"
	"bsisa/internal/isa"
)

// DefaultMaxBlockOps is the paper's atomic block size cap: the processor's
// issue width (16 operations), so a block never takes more than one cycle to
// issue (paper rule 1).
const DefaultMaxBlockOps = 16

// generator translates an IR module into an ISA program.
type generator struct {
	prog   *isa.Program
	mod    *ir.Module
	kind   isa.Kind
	maxOps int

	funcEntry map[string]isa.BlockID // function name -> entry block placeholder
	blockMap  map[*ir.Block]isa.BlockID

	// per-function state
	irf   *ir.Func
	fn    *isa.Func
	alloc *Allocation
	frame frameInfo
	cur   *isa.Block
}

type frameInfo struct {
	arrayBytes int32
	spillBase  int32
	savedBase  int32
	lrOff      int32
	size       int32
	saveLR     bool
	savedRegs  []isa.Reg
}

// Generate translates the module for the given ISA. For the block-structured
// ISA, blocks longer than maxOps operations are split into chains so that
// every atomic block issues in one cycle; pass 0 to use DefaultMaxBlockOps.
// The conventional ISA ignores maxOps (long basic blocks simply take several
// fetch cycles).
func Generate(m *ir.Module, kind isa.Kind, maxOps int) (*isa.Program, error) {
	if maxOps <= 0 {
		maxOps = DefaultMaxBlockOps
	}
	g := &generator{
		prog:      &isa.Program{Kind: kind, Name: m.Name},
		mod:       m,
		kind:      kind,
		maxOps:    maxOps,
		funcEntry: map[string]isa.BlockID{},
		blockMap:  map[*ir.Block]isa.BlockID{},
	}
	g.layoutGlobals()

	if m.Func("main") == nil {
		return nil, fmt.Errorf("compile: module has no main")
	}

	// Pre-create every function and a placeholder block per IR block so
	// calls and branches can reference them before they are filled.
	for _, f := range m.Funcs {
		fid := isa.FuncID(len(g.prog.Funcs))
		isaF := &isa.Func{ID: fid, Name: f.Name, NumArgs: len(f.Params), Library: f.Library}
		g.prog.Funcs = append(g.prog.Funcs, isaF)
		for _, b := range f.Blocks {
			pb := isa.NewBlock(fid)
			pb.Library = f.Library
			g.prog.AddBlock(pb)
			g.blockMap[b] = pb.ID
		}
		isaF.Entry = g.blockMap[f.Entry]
		g.funcEntry[f.Name] = isaF.Entry
	}

	// Synthesize _start: call main, halt.
	startID := isa.FuncID(len(g.prog.Funcs))
	start := &isa.Func{ID: startID, Name: "_start"}
	g.prog.Funcs = append(g.prog.Funcs, start)
	callB := isa.NewBlock(startID)
	haltB := isa.NewBlock(startID)
	g.prog.AddBlock(callB)
	g.prog.AddBlock(haltB)
	callB.Ops = []isa.Op{{Opcode: isa.CALL, Target: g.funcEntry["main"]}}
	callB.Succs = []isa.BlockID{g.funcEntry["main"]}
	callB.Cont = haltB.ID
	haltB.Ops = []isa.Op{{Opcode: isa.HALT}}
	start.Entry = callB.ID
	g.prog.EntryFunc = startID

	for i, f := range m.Funcs {
		if err := g.genFunc(f, g.prog.Funcs[i]); err != nil {
			return nil, err
		}
	}

	if g.kind == isa.BlockStructured {
		if err := g.splitLongBlocks(); err != nil {
			return nil, err
		}
	}
	g.prog.Layout()
	if err := g.prog.Validate(); err != nil {
		return nil, fmt.Errorf("compile: generated invalid program: %w", err)
	}
	return g.prog, nil
}

func (g *generator) layoutGlobals() {
	g.prog.GlobalOffsets = map[string]int32{}
	var off int32
	for _, gl := range g.mod.Globals {
		g.prog.GlobalOffsets[gl.Name] = off
		off += gl.Words
	}
	g.prog.GlobalWords = off
}

func (g *generator) genFunc(f *ir.Func, isaF *isa.Func) error {
	g.irf = f
	g.fn = isaF
	g.alloc = Allocate(f)

	makesCalls := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.Call {
				makesCalls = true
			}
		}
	}

	fr := &g.frame
	fr.arrayBytes = f.FrameWords * 8
	fr.spillBase = fr.arrayBytes
	fr.savedBase = fr.spillBase + int32(g.alloc.NumSlots)*8
	fr.savedRegs = g.alloc.CalleeSavedUsed()
	fr.saveLR = makesCalls
	fr.size = fr.savedBase + int32(len(fr.savedRegs))*8
	if fr.saveLR {
		fr.lrOff = fr.size
		fr.size += 8
	}
	if fr.size > 32000 {
		return fmt.Errorf("compile: %s frame %d bytes exceeds immediate range", f.Name, fr.size)
	}
	isaF.FrameSize = fr.size

	for _, b := range f.Blocks {
		g.cur = g.prog.Block(g.blockMap[b])
		if b == f.Entry {
			g.genPrologue()
		}
		if err := g.genBlock(b); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) emit(op isa.Op) { g.cur.Ops = append(g.cur.Ops, op) }

func (g *generator) genPrologue() {
	fr := &g.frame
	if fr.size > 0 {
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: -fr.size})
	}
	for i, r := range fr.savedRegs {
		g.emit(isa.Op{Opcode: isa.ST, Rs1: isa.RegSP, Rs2: r, Imm: fr.savedBase + int32(i)*8})
	}
	if fr.saveLR {
		g.emit(isa.Op{Opcode: isa.ST, Rs1: isa.RegSP, Rs2: isa.RegLR, Imm: fr.lrOff})
	}
	// Move incoming arguments to their allocated homes.
	for i, p := range g.irf.Params {
		argReg := isa.RegArg0 + isa.Reg(i)
		if home, ok := g.alloc.RegOf(p); ok {
			g.emit(isa.Op{Opcode: isa.ADDI, Rd: home, Rs1: argReg, Imm: 0})
		} else if slot, ok := g.alloc.SlotOf(p); ok {
			g.emit(isa.Op{Opcode: isa.ST, Rs1: isa.RegSP, Rs2: argReg, Imm: fr.spillBase + int32(slot)*8})
		}
		// A parameter with neither a register nor a slot is never used; drop it.
	}
}

func (g *generator) genEpilogue() {
	fr := &g.frame
	if fr.saveLR {
		g.emit(isa.Op{Opcode: isa.LD, Rd: isa.RegLR, Rs1: isa.RegSP, Imm: fr.lrOff})
	}
	for i, r := range fr.savedRegs {
		g.emit(isa.Op{Opcode: isa.LD, Rd: r, Rs1: isa.RegSP, Imm: fr.savedBase + int32(i)*8})
	}
	if fr.size > 0 {
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSP, Rs1: isa.RegSP, Imm: fr.size})
	}
}

// readReg ensures the value of vreg is in an architectural register, loading
// spills into the given scratch register.
func (g *generator) readReg(v ir.Reg, scratch isa.Reg) isa.Reg {
	if r, ok := g.alloc.RegOf(v); ok {
		return r
	}
	slot, ok := g.alloc.SlotOf(v)
	if !ok {
		// A register that was never defined (possible only for unused
		// params); read as zero.
		return isa.RegZero
	}
	g.emit(isa.Op{Opcode: isa.LD, Rd: scratch, Rs1: isa.RegSP, Imm: g.frame.spillBase + int32(slot)*8})
	return scratch
}

// destReg returns the register an instruction should write, and a function to
// call afterwards that stores spilled destinations.
func (g *generator) destReg(v ir.Reg, scratch isa.Reg) (isa.Reg, func()) {
	if r, ok := g.alloc.RegOf(v); ok {
		return r, func() {}
	}
	slot, ok := g.alloc.SlotOf(v)
	if !ok {
		// Dead destination (e.g. call result never used after DCE ran on a
		// multi-def register): write the scratch and drop it.
		return scratch, func() {}
	}
	off := g.frame.spillBase + int32(slot)*8
	return scratch, func() {
		g.emit(isa.Op{Opcode: isa.ST, Rs1: isa.RegSP, Rs2: scratch, Imm: off})
	}
}

// materializeConst loads an arbitrary 64-bit constant into rd: one ADDI for
// small values, LUI+ORI for 32-bit unsigned values, and a shift-and-or chunk
// sequence (up to six operations) in general.
func (g *generator) materializeConst(rd isa.Reg, v int64) error {
	if v >= -32768 && v <= 32767 {
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: rd, Rs1: isa.RegZero, Imm: int32(v)})
		return nil
	}
	if v >= 0 && v <= 0xFFFF_FFFF {
		hi := int32(v >> 16 & 0xFFFF)
		lo := int32(v & 0xFFFF)
		g.emit(isa.Op{Opcode: isa.LUI, Rd: rd, Imm: hi})
		if lo != 0 {
			g.emit(isa.Op{Opcode: isa.ORI, Rd: rd, Rs1: rd, Imm: lo})
		}
		return nil
	}
	// General 64-bit: build the bit pattern 16 bits at a time.
	u := uint64(v)
	c3 := int32(u >> 48 & 0xFFFF)
	c2 := int32(u >> 32 & 0xFFFF)
	c1 := int32(u >> 16 & 0xFFFF)
	c0 := int32(u & 0xFFFF)
	g.emit(isa.Op{Opcode: isa.LUI, Rd: rd, Imm: c3})
	if c2 != 0 {
		g.emit(isa.Op{Opcode: isa.ORI, Rd: rd, Rs1: rd, Imm: c2})
	}
	g.emit(isa.Op{Opcode: isa.SHLI, Rd: rd, Rs1: rd, Imm: 16})
	if c1 != 0 {
		g.emit(isa.Op{Opcode: isa.ORI, Rd: rd, Rs1: rd, Imm: c1})
	}
	g.emit(isa.Op{Opcode: isa.SHLI, Rd: rd, Rs1: rd, Imm: 16})
	if c0 != 0 {
		g.emit(isa.Op{Opcode: isa.ORI, Rd: rd, Rs1: rd, Imm: c0})
	}
	return nil
}

// materializeAddr loads an absolute byte address into rd.
func (g *generator) materializeAddr(rd isa.Reg, addr uint32) {
	hi := int32(addr >> 16 & 0xFFFF)
	lo := int32(addr & 0xFFFF)
	g.emit(isa.Op{Opcode: isa.LUI, Rd: rd, Imm: hi})
	if lo != 0 {
		g.emit(isa.Op{Opcode: isa.ORI, Rd: rd, Rs1: rd, Imm: lo})
	}
}

var cmpSel = map[ir.Opc]struct {
	opc  isa.Opcode
	swap bool
}{
	ir.CmpEQ: {isa.SEQ, false},
	ir.CmpNE: {isa.SNE, false},
	ir.CmpLT: {isa.SLT, false},
	ir.CmpLE: {isa.SLE, false},
	ir.CmpGT: {isa.SLT, true},
	ir.CmpGE: {isa.SLE, true},
}

var binSel = map[ir.Opc]isa.Opcode{
	ir.Add: isa.ADD, ir.Sub: isa.SUB, ir.Mul: isa.MUL, ir.Div: isa.DIV,
	ir.Rem: isa.REM, ir.And: isa.AND, ir.Or: isa.OR, ir.Xor: isa.XOR,
	ir.Shl: isa.SHL, ir.Shr: isa.SAR,
}

func (g *generator) genBlock(b *ir.Block) error {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if err := g.genInstr(b, in); err != nil {
			return fmt.Errorf("%s b%d: %s: %w", g.irf.Name, b.ID, in.String(), err)
		}
	}
	// Attach successors to the final block of the chain.
	t := b.Term()
	switch t.Op {
	case ir.Jmp:
		target := g.blockMap[b.Succs[0]]
		if g.kind.HeaderBytes() == 0 {
			// Header-carrying kinds (block-structured, basicblocker) encode
			// the successor in the block header; header-less kinds need the
			// explicit jump operation.
			g.emit(isa.Op{Opcode: isa.JMP, Target: target})
		}
		g.cur.Succs = []isa.BlockID{target}
	case ir.Br:
		cond := g.readReg(t.A, isa.RegSav0)
		opc := isa.BR
		if g.kind == isa.BlockStructured {
			opc = isa.TRAP
		}
		taken := g.blockMap[b.Succs[0]]
		fall := g.blockMap[b.Succs[1]]
		g.emit(isa.Op{Opcode: opc, Rs1: cond, Target: taken})
		g.cur.Succs = []isa.BlockID{taken, fall}
		g.cur.TakenCount = 1
		g.cur.RecomputeHistBits()
	case ir.Switch:
		return g.genSwitch(b, t)
	case ir.Ret:
		// Ret is generated in genInstr (it needs the value before the
		// epilogue).
	}
	return nil
}

// genSwitch lowers an ir.Switch into a bounds check, a rodata jump-table
// load, and an indirect jump — three ISA blocks, since each block holds one
// control transfer. The table's entries are final block IDs in the rodata
// segment; the enlarger treats the indirect jump's successors as rule-3
// boundaries.
func (g *generator) genSwitch(b *ir.Block, t *ir.Instr) error {
	n := len(b.Succs) - 1 // table entries; the final successor is default
	lo := t.Imm
	defaultID := g.blockMap[b.Succs[n]]

	branchOpc := isa.BR
	if g.kind == isa.BlockStructured {
		branchOpc = isa.TRAP
	}

	// Block 1 (current): idx = x - lo; if idx < 0 goto default.
	idx := g.readReg(t.A, isa.RegSav0)
	g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSav0, Rs1: idx, Imm: int32(-lo)})
	g.emit(isa.Op{Opcode: isa.SLTI, Rd: isa.RegSav1, Rs1: isa.RegSav0, Imm: 0})

	b2 := isa.NewBlock(g.fn.ID)
	b2.Library = g.fn.Library
	g.prog.AddBlock(b2)
	b3 := isa.NewBlock(g.fn.ID)
	b3.Library = g.fn.Library
	g.prog.AddBlock(b3)

	g.emit(isa.Op{Opcode: branchOpc, Rs1: isa.RegSav1, Target: defaultID})
	g.cur.Succs = []isa.BlockID{defaultID, b2.ID}
	g.cur.TakenCount = 1
	g.cur.RecomputeHistBits()

	// Block 2: if idx < n fall into the table jump, else default. The
	// bounds index survives in RegSav0 across these blocks: the scratch
	// registers are block-local by convention, and these three blocks are
	// emitted as an indivisible unit no other codegen interleaves with.
	g.cur = b2
	g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSav1, Rs1: isa.RegZero, Imm: int32(n)})
	g.emit(isa.Op{Opcode: isa.SLT, Rd: isa.RegSav1, Rs1: isa.RegSav0, Rs2: isa.RegSav1})
	g.emit(isa.Op{Opcode: branchOpc, Rs1: isa.RegSav1, Target: b3.ID})
	b2.Succs = []isa.BlockID{b3.ID, defaultID}
	b2.TakenCount = 1
	b2.RecomputeHistBits()

	// Block 3: load the table entry and jump through it.
	tableOff := len(g.prog.Rodata)
	for i := 0; i < n; i++ {
		g.prog.Rodata = append(g.prog.Rodata, int64(g.blockMap[b.Succs[i]]))
	}
	tableAddr := g.prog.RodataBase() + uint32(tableOff)*8
	g.cur = b3
	g.emit(isa.Op{Opcode: isa.SHLI, Rd: isa.RegSav1, Rs1: isa.RegSav0, Imm: 3})
	g.materializeAddr(isa.RegSav0, tableAddr)
	g.emit(isa.Op{Opcode: isa.ADD, Rd: isa.RegSav0, Rs1: isa.RegSav0, Rs2: isa.RegSav1})
	g.emit(isa.Op{Opcode: isa.LD, Rd: isa.RegSav0, Rs1: isa.RegSav0, Imm: 0})
	g.emit(isa.Op{Opcode: isa.JR, Rs1: isa.RegSav0})
	seen := map[isa.BlockID]bool{}
	for i := 0; i < n; i++ {
		id := g.blockMap[b.Succs[i]]
		if !seen[id] {
			seen[id] = true
			b3.Succs = append(b3.Succs, id)
		}
	}
	b3.TakenCount = 0
	b3.RecomputeHistBits()
	return nil
}

func (g *generator) genInstr(b *ir.Block, in *ir.Instr) error {
	switch in.Op {
	case ir.Nop:
	case ir.Const:
		rd, done := g.destReg(in.Dst, isa.RegSav0)
		if err := g.materializeConst(rd, in.Imm); err != nil {
			return err
		}
		done()
	case ir.Copy:
		src := g.readReg(in.A, isa.RegSav0)
		rd, done := g.destReg(in.Dst, isa.RegSav1)
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: rd, Rs1: src, Imm: 0})
		done()
	case ir.Neg:
		src := g.readReg(in.A, isa.RegSav0)
		rd, done := g.destReg(in.Dst, isa.RegSav1)
		g.emit(isa.Op{Opcode: isa.SUB, Rd: rd, Rs1: isa.RegZero, Rs2: src})
		done()
	case ir.CmovNZ:
		// The destination is also a source (the not-taken value).
		val := g.readReg(in.A, isa.RegSav0)
		cond := g.readReg(in.B, isa.RegSav1)
		if r, ok := g.alloc.RegOf(in.Dst); ok {
			g.emit(isa.Op{Opcode: isa.CMOVNZ, Rd: r, Rs1: val, Rs2: cond})
		} else if slot, ok := g.alloc.SlotOf(in.Dst); ok {
			// Three live values (old, val, cond) but only two spill
			// scratches: borrow the return-value register, which is dead
			// everywhere except immediately around calls and returns —
			// positions a conditional move never occupies.
			off := g.frame.spillBase + int32(slot)*8
			g.emit(isa.Op{Opcode: isa.LD, Rd: isa.RegRV, Rs1: isa.RegSP, Imm: off})
			g.emit(isa.Op{Opcode: isa.CMOVNZ, Rd: isa.RegRV, Rs1: val, Rs2: cond})
			g.emit(isa.Op{Opcode: isa.ST, Rs1: isa.RegSP, Rs2: isa.RegRV, Imm: off})
		}
	case ir.Not:
		src := g.readReg(in.A, isa.RegSav0)
		rd, done := g.destReg(in.Dst, isa.RegSav1)
		g.emit(isa.Op{Opcode: isa.SEQ, Rd: rd, Rs1: src, Rs2: isa.RegZero})
		done()
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr:
		a := g.readReg(in.A, isa.RegSav0)
		bb := g.readReg(in.B, isa.RegSav1)
		rd, done := g.destReg(in.Dst, isa.RegSav0)
		g.emit(isa.Op{Opcode: binSel[in.Op], Rd: rd, Rs1: a, Rs2: bb})
		done()
	case ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE:
		a := g.readReg(in.A, isa.RegSav0)
		bb := g.readReg(in.B, isa.RegSav1)
		sel := cmpSel[in.Op]
		if sel.swap {
			a, bb = bb, a
		}
		rd, done := g.destReg(in.Dst, isa.RegSav0)
		g.emit(isa.Op{Opcode: sel.opc, Rd: rd, Rs1: a, Rs2: bb})
		done()
	case ir.GlobalAddr:
		off, ok := g.prog.GlobalOffsets[in.Sym]
		if !ok {
			return fmt.Errorf("unknown global %s", in.Sym)
		}
		rd, done := g.destReg(in.Dst, isa.RegSav0)
		g.materializeAddr(rd, uint32(isa.GlobalBase)+uint32(off)*8)
		done()
	case ir.FrameAddr:
		rd, done := g.destReg(in.Dst, isa.RegSav0)
		if in.Imm > 32767 {
			return fmt.Errorf("frame offset %d out of range", in.Imm)
		}
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: rd, Rs1: isa.RegSP, Imm: int32(in.Imm)})
		done()
	case ir.Load:
		addr := g.readReg(in.A, isa.RegSav0)
		rd, done := g.destReg(in.Dst, isa.RegSav1)
		if in.Imm >= -32768 && in.Imm <= 32767 {
			g.emit(isa.Op{Opcode: isa.LD, Rd: rd, Rs1: addr, Imm: int32(in.Imm)})
		} else {
			if err := g.materializeConst(isa.RegSav1, in.Imm); err != nil {
				return err
			}
			g.emit(isa.Op{Opcode: isa.ADD, Rd: isa.RegSav1, Rs1: addr, Rs2: isa.RegSav1})
			g.emit(isa.Op{Opcode: isa.LD, Rd: rd, Rs1: isa.RegSav1, Imm: 0})
		}
		done()
	case ir.Store:
		addr := g.readReg(in.A, isa.RegSav0)
		val := g.readReg(in.B, isa.RegSav1)
		if in.Imm >= -32768 && in.Imm <= 32767 {
			g.emit(isa.Op{Opcode: isa.ST, Rs1: addr, Rs2: val, Imm: int32(in.Imm)})
		} else {
			// addr may be in RegSav0; offset it in place via a fresh
			// materialization into RegSav0 after copying val... val is in
			// RegSav1; compute address into RegSav0.
			if addr != isa.RegSav0 {
				g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSav0, Rs1: addr, Imm: 0})
			}
			hi := int32(in.Imm >> 16 & 0xFFFF)
			lo := int32(in.Imm & 0xFFFF)
			if in.Imm < 0 || in.Imm > 0x7FFF_FFFF {
				return fmt.Errorf("store offset %d out of range", in.Imm)
			}
			// RegSav0 += imm using LUI into... no third scratch: add hi
			// then lo as two ADDIs when hi fits? Use SHLI trick instead:
			// build imm in two ADDI steps of <=15 bits each.
			g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSav0, Rs1: isa.RegSav0, Imm: lo & 0x7FFF})
			rest := in.Imm - int64(lo&0x7FFF)
			for rest > 0 {
				step := rest
				if step > 32767 {
					step = 32767
				}
				g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegSav0, Rs1: isa.RegSav0, Imm: int32(step)})
				rest -= step
			}
			_ = hi
			g.emit(isa.Op{Opcode: isa.ST, Rs1: isa.RegSav0, Rs2: val, Imm: 0})
		}
	case ir.Out:
		src := g.readReg(in.A, isa.RegSav0)
		g.emit(isa.Op{Opcode: isa.OUT, Rs1: src})
	case ir.Call:
		return g.genCall(in)
	case ir.Ret:
		src := g.readReg(in.A, isa.RegSav0)
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegRV, Rs1: src, Imm: 0})
		g.genEpilogue()
		g.emit(isa.Op{Opcode: isa.RET, Rs1: isa.RegLR})
		g.cur.Succs = nil
	case ir.Br, ir.Jmp, ir.Switch:
		// Handled by genBlock after the loop.
	default:
		return fmt.Errorf("unhandled IR op %s", in.Op)
	}
	return nil
}

// genCall emits argument moves and the CALL, then switches emission to a new
// continuation block (CALL always terminates a block at the ISA level).
func (g *generator) genCall(in *ir.Instr) error {
	target, ok := g.funcEntry[in.Sym]
	if !ok {
		return fmt.Errorf("call to unknown function %s", in.Sym)
	}
	if len(in.Args) > int(isa.RegArgN-isa.RegArg0)+1 {
		return fmt.Errorf("too many arguments to %s", in.Sym)
	}
	for i, a := range in.Args {
		src := g.readReg(a, isa.RegSav0)
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: isa.RegArg0 + isa.Reg(i), Rs1: src, Imm: 0})
	}
	g.emit(isa.Op{Opcode: isa.CALL, Target: target})

	cont := isa.NewBlock(g.fn.ID)
	cont.Library = g.fn.Library
	g.prog.AddBlock(cont)
	g.cur.Succs = []isa.BlockID{target}
	g.cur.Cont = cont.ID
	g.cur = cont

	if in.Dst != ir.NoReg {
		rd, done := g.destReg(in.Dst, isa.RegSav0)
		g.emit(isa.Op{Opcode: isa.ADDI, Rd: rd, Rs1: isa.RegRV, Imm: 0})
		done()
	}
	return nil
}

// splitLongBlocks splits BSA blocks longer than maxOps into unconditional
// chains so every atomic block issues in one cycle.
func (g *generator) splitLongBlocks() error {
	// Iterate over a snapshot: new blocks appended during splitting are
	// already short.
	n := len(g.prog.Blocks)
	for i := 0; i < n; i++ {
		b := g.prog.Blocks[i]
		if b == nil || len(b.Ops) <= g.maxOps {
			continue
		}
		rest := b
		for len(rest.Ops) > g.maxOps {
			// Keep a terminator with its block: never split so that a
			// terminator begins a chunk alone mid-sequence; simply cut at
			// maxOps, but if the cut would strand a terminator, back off
			// by one.
			cut := g.maxOps
			head := rest.Ops[:cut]
			tailOps := rest.Ops[cut:]
			next := isa.NewBlock(rest.Func)
			next.Library = rest.Library
			g.prog.AddBlock(next)
			next.Ops = append([]isa.Op(nil), tailOps...)
			next.Succs = rest.Succs
			next.TakenCount = rest.TakenCount
			next.HistBits = rest.HistBits
			next.Cont = rest.Cont

			rest.Ops = append([]isa.Op(nil), head...)
			rest.Succs = []isa.BlockID{next.ID}
			rest.TakenCount = 0
			rest.HistBits = 0
			rest.Cont = isa.NoBlock

			rest = next
		}
	}
	return nil
}
