package compile

import (
	"sort"

	"bsisa/internal/ir"
	"bsisa/internal/isa"
)

// Calling-convention split of the allocatable registers (r11..r28): values
// not live across any call prefer caller-saved registers (which cost nothing
// to use); values live across a call must sit in callee-saved registers
// (saved/restored by the prologue/epilogue of functions that use them) or be
// spilled.
const (
	firstCalleeSaved = isa.RegTmp0 + 9 // r20
)

// IsCalleeSaved reports whether an allocatable register must be preserved by
// a callee that writes it.
func IsCalleeSaved(r isa.Reg) bool {
	return r >= firstCalleeSaved && r <= isa.RegTmpN
}

// Allocation is the result of register allocation for one function: every
// virtual register mentioned in the function is assigned either an
// architectural register or a spill slot.
type Allocation struct {
	// regOf[v] is virtual register v's architectural register; isa.RegZero,
	// which is never allocatable, marks a register with none.
	regOf []isa.Reg
	// slotOf[v] is v's spill slot, or -1.
	slotOf []int
	// NumSlots is the number of spill slots used.
	NumSlots int
	// UsedRegs lists the architectural registers the function writes.
	UsedRegs []isa.Reg
}

// RegOf returns the architectural register allocated to v, if any.
func (a *Allocation) RegOf(v ir.Reg) (isa.Reg, bool) {
	if v < 0 || int(v) >= len(a.regOf) || a.regOf[v] == isa.RegZero {
		return 0, false
	}
	return a.regOf[v], true
}

// SlotOf returns the spill slot of v, if v was spilled: a frame word index
// relative to the spill area, which codegen places after the local-array
// area.
func (a *Allocation) SlotOf(v ir.Reg) (int, bool) {
	if v < 0 || int(v) >= len(a.slotOf) || a.slotOf[v] < 0 {
		return 0, false
	}
	return a.slotOf[v], true
}

// CalleeSavedUsed returns the callee-saved registers the function must
// preserve.
func (a *Allocation) CalleeSavedUsed() []isa.Reg {
	var out []isa.Reg
	for _, r := range a.UsedRegs {
		if IsCalleeSaved(r) {
			out = append(out, r)
		}
	}
	return out
}

// interval is a live interval in the linearized instruction order.
type interval struct {
	reg        ir.Reg
	start, end int
	spansCall  bool
}

// Allocate performs linear-scan register allocation over the function.
//
// Intervals are built from block-level liveness: a register live into or out
// of a block extends across the whole block, which is conservative but
// correct in the presence of loops. Parameters are live from position 0
// (they arrive in the argument registers and are moved to their homes by the
// entry sequence codegen emits). Intervals spanning a call site may only
// live in callee-saved registers.
func Allocate(f *ir.Func) *Allocation {
	live := f.Liveness()

	// Linearize: number instructions block by block in layout order. Block
	// i occupies positions [bounds[i], bounds[i+1]); callPos is ascending.
	pos := 0
	bounds := make([]int, len(f.Blocks)+1)
	var callPos []int
	for i, b := range f.Blocks {
		bounds[i] = pos
		for j := range b.Instrs {
			if b.Instrs[j].Op == ir.Call {
				callPos = append(callPos, pos+j)
			}
		}
		pos += len(b.Instrs) + 1 // +1 so empty blocks still occupy space
	}
	bounds[len(f.Blocks)] = pos

	// ivals[v] is v's interval; start -1 marks a register never touched.
	ivals := make([]interval, f.NextReg)
	for r := range ivals {
		ivals[r] = interval{reg: ir.Reg(r), start: -1}
	}
	touch := func(r ir.Reg, at int) {
		if r == ir.NoReg {
			return
		}
		iv := &ivals[r]
		if iv.start < 0 {
			iv.start, iv.end = at, at
			return
		}
		if at < iv.start {
			iv.start = at
		}
		if at > iv.end {
			iv.end = at
		}
	}
	for i, b := range f.Blocks {
		p := bounds[i]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			for _, u := range in.Uses() {
				touch(u, p)
			}
			if d := in.Def(); d != ir.NoReg {
				touch(d, p)
			}
			p++
		}
		live.In(b).ForEach(func(r ir.Reg) { touch(r, bounds[i]) })
		live.Out(b).ForEach(func(r ir.Reg) { touch(r, bounds[i+1]) })
	}
	for _, pr := range f.Params {
		touch(pr, 0)
	}

	order := make([]*interval, 0, len(ivals))
	for r := range ivals {
		iv := &ivals[r]
		if iv.start < 0 {
			continue
		}
		// The first call after start decides whether one lies strictly
		// inside the interval.
		k := sort.SearchInts(callPos, iv.start+1)
		iv.spansCall = k < len(callPos) && callPos[k] < iv.end
		order = append(order, iv)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].start != order[j].start {
			return order[i].start < order[j].start
		}
		return order[i].reg < order[j].reg
	})

	alloc := &Allocation{regOf: make([]isa.Reg, f.NextReg), slotOf: make([]int, f.NextReg)}
	for r := range alloc.slotOf {
		alloc.slotOf[r] = -1
	}
	type active struct {
		iv  *interval
		reg isa.Reg
	}
	var actives []active
	var freeCaller, freeCallee []isa.Reg
	for r := isa.RegTmp0; r <= isa.RegTmpN; r++ {
		if IsCalleeSaved(r) {
			freeCallee = append(freeCallee, r)
		} else {
			freeCaller = append(freeCaller, r)
		}
	}
	var used [isa.NumRegs]bool

	expire := func(at int) {
		kept := actives[:0]
		for _, a := range actives {
			if a.iv.end < at {
				if IsCalleeSaved(a.reg) {
					freeCallee = append(freeCallee, a.reg)
				} else {
					freeCaller = append(freeCaller, a.reg)
				}
			} else {
				kept = append(kept, a)
			}
		}
		actives = kept
	}

	spill := func(iv *interval) {
		alloc.slotOf[iv.reg] = alloc.NumSlots
		alloc.NumSlots++
	}

	take := func(pool *[]isa.Reg, iv *interval) {
		r := (*pool)[0]
		*pool = (*pool)[1:]
		alloc.regOf[iv.reg] = r
		used[r] = true
		actives = append(actives, active{iv, r})
	}

	for _, iv := range order {
		expire(iv.start)
		if iv.spansCall {
			if len(freeCallee) > 0 {
				take(&freeCallee, iv)
				continue
			}
			// Steal a callee-saved register from the active interval with
			// the furthest end, if it outlasts this one.
			victim := -1
			for i, a := range actives {
				if !IsCalleeSaved(a.reg) {
					continue
				}
				if victim == -1 || a.iv.end > actives[victim].iv.end {
					victim = i
				}
			}
			if victim >= 0 && actives[victim].iv.end > iv.end {
				v := actives[victim]
				spill(v.iv)
				alloc.regOf[v.iv.reg] = isa.RegZero
				alloc.regOf[iv.reg] = v.reg
				actives[victim] = active{iv, v.reg}
			} else {
				spill(iv)
			}
			continue
		}
		// Non-spanning: any register works; prefer caller-saved.
		if len(freeCaller) > 0 {
			take(&freeCaller, iv)
			continue
		}
		if len(freeCallee) > 0 {
			take(&freeCallee, iv)
			continue
		}
		// Steal from the active interval with the furthest end whose
		// register this interval may use (any), provided the victim is not
		// call-spanning in a caller-saved slot (impossible by
		// construction) and outlasts the new interval.
		victim := -1
		for i, a := range actives {
			if a.iv.spansCall && !IsCalleeSaved(a.reg) {
				continue // defensive; cannot happen
			}
			// Stealing a callee-saved reg from a spanning interval would
			// force the victim to spill, which is fine.
			if victim == -1 || a.iv.end > actives[victim].iv.end {
				victim = i
			}
		}
		if victim >= 0 && actives[victim].iv.end > iv.end {
			v := actives[victim]
			spill(v.iv)
			alloc.regOf[v.iv.reg] = isa.RegZero
			alloc.regOf[iv.reg] = v.reg
			actives[victim] = active{iv, v.reg}
		} else {
			spill(iv)
		}
	}

	for r, ok := range used {
		if ok {
			alloc.UsedRegs = append(alloc.UsedRegs, isa.Reg(r))
		}
	}
	return alloc
}
