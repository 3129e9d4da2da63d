package compile

import (
	"testing"

	"bsisa/internal/ir"
	"bsisa/internal/isa"
)

func TestIsCalleeSaved(t *testing.T) {
	if IsCalleeSaved(isa.RegTmp0) {
		t.Error("first temp should be caller-saved")
	}
	if !IsCalleeSaved(isa.RegTmpN) {
		t.Error("last temp should be callee-saved")
	}
	if IsCalleeSaved(isa.RegSP) || IsCalleeSaved(isa.RegLR) {
		t.Error("special registers are not in the allocatable split")
	}
	// The split partitions the allocatable range.
	caller, callee := 0, 0
	for r := isa.RegTmp0; r <= isa.RegTmpN; r++ {
		if IsCalleeSaved(r) {
			callee++
		} else {
			caller++
		}
	}
	if caller == 0 || callee == 0 || caller+callee != int(isa.RegTmpN-isa.RegTmp0)+1 {
		t.Errorf("bad split: %d caller, %d callee", caller, callee)
	}
}

// TestCallSpanningValuesGetCalleeSaved builds IR with a value live across a
// call and one that dies before it, and checks their register classes.
func TestCallSpanningValuesGetCalleeSaved(t *testing.T) {
	f := &ir.Func{Name: "t"}
	b := f.NewBlock()
	f.Entry = b
	spanning := f.NewReg() // defined before the call, used after
	local := f.NewReg()    // defined and used before the call
	sink := f.NewReg()
	b.Instrs = []ir.Instr{
		{Op: ir.Const, Dst: spanning, Imm: 1, A: ir.NoReg, B: ir.NoReg},
		{Op: ir.Const, Dst: local, Imm: 2, A: ir.NoReg, B: ir.NoReg},
		{Op: ir.Out, A: local, Dst: ir.NoReg, B: ir.NoReg},
		{Op: ir.Call, Dst: sink, Sym: "g", A: ir.NoReg, B: ir.NoReg},
		{Op: ir.Out, A: spanning, Dst: ir.NoReg, B: ir.NoReg},
		{Op: ir.Ret, A: sink, Dst: ir.NoReg, B: ir.NoReg},
	}
	alloc := Allocate(f)
	if r, ok := alloc.RegOf(spanning); ok {
		if !IsCalleeSaved(r) {
			t.Errorf("call-spanning value allocated to caller-saved %s", r)
		}
	} else if _, spilled := alloc.SlotOf(spanning); !spilled {
		t.Error("call-spanning value neither allocated nor spilled")
	}
	if r, ok := alloc.RegOf(local); ok && IsCalleeSaved(r) {
		t.Errorf("short-lived value wastes callee-saved %s", r)
	}
}

// TestSpanningOverflowSpills: more call-spanning values than callee-saved
// registers must spill rather than land in caller-saved registers.
func TestSpanningOverflowSpills(t *testing.T) {
	f := &ir.Func{Name: "t"}
	b := f.NewBlock()
	f.Entry = b
	const n = 15 // more than the 9 callee-saved registers
	var vals []ir.Reg
	for i := 0; i < n; i++ {
		v := f.NewReg()
		vals = append(vals, v)
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Const, Dst: v, Imm: int64(i), A: ir.NoReg, B: ir.NoReg})
	}
	sink := f.NewReg()
	b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Call, Dst: sink, Sym: "g", A: ir.NoReg, B: ir.NoReg})
	for _, v := range vals {
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Out, A: v, Dst: ir.NoReg, B: ir.NoReg})
	}
	b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Ret, A: sink, Dst: ir.NoReg, B: ir.NoReg})

	alloc := Allocate(f)
	spilled := 0
	for _, v := range vals {
		if r, ok := alloc.RegOf(v); ok {
			if !IsCalleeSaved(r) {
				t.Errorf("spanning value in caller-saved %s would be clobbered", r)
			}
		} else if _, ok := alloc.SlotOf(v); ok {
			spilled++
		} else {
			t.Error("value lost by the allocator")
		}
	}
	if spilled == 0 {
		t.Error("expected spills with 15 spanning values and 9 callee-saved registers")
	}
}

// TestPrologueSavesExactlyCalleeSavedUsed compiles a function and checks the
// prologue stores match CalleeSavedUsed.
func TestPrologueSavesExactlyCalleeSavedUsed(t *testing.T) {
	src := `
func helper(a) { return a * 2; }
func work(a, b) {
	var s = a + b;
	var u = helper(a);
	return s + u;
}
func main() { out(work(3, 4)); }`
	m := frontend(t, src, true)
	p, err := Generate(m, isa.Conventional, 0)
	if err != nil {
		t.Fatal(err)
	}
	work := p.FuncByName("work")
	entry := p.Block(work.Entry)
	saves := map[isa.Reg]bool{}
	for i := range entry.Ops {
		op := entry.Ops[i]
		if op.Opcode == isa.ST && op.Rs1 == isa.RegSP && op.Rs2 != isa.RegLR &&
			op.Rs2 >= isa.RegTmp0 && op.Rs2 <= isa.RegTmpN {
			saves[op.Rs2] = true
			if !IsCalleeSaved(op.Rs2) {
				t.Errorf("prologue saves caller-saved %s", op.Rs2)
			}
		}
	}
	// s spans the call to helper, so at least one callee-saved register (or
	// a spill) is in play; if registers were used they must be saved.
	alloc := Allocate(m.Func("work"))
	for _, r := range alloc.CalleeSavedUsed() {
		if !saves[r] {
			t.Errorf("callee-saved %s used but not saved in prologue", r)
		}
	}
}
