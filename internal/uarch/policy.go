package uarch

import (
	"bsisa/internal/backend"
	"bsisa/internal/isa"
)

// This file is the timing side of the backend fetch policy
// (backend.Policy): predictor selection lives in New, the BasicBlocker
// serialization stall and the macro-op fusion patterns live here. Fusion is
// a decode-time rewrite of static code, so predecode applies it
// (flattenSweepProgram): each pair becomes one laneOp.

// serializesFetch reports whether a terminator's transfer only resolves at
// execute — conditionally (BR) or indirectly (JR, RET). Under
// Policy.SerializeControl the front end never speculates past one: fetch
// waits for the terminator and then refills the pipeline, exactly like a
// misprediction recovery but paid on every such block.
func serializesFetch(t *isa.Op) bool {
	if t == nil {
		// Fall-through: the next block is sequential, known at decode.
		return false
	}
	switch t.Opcode {
	case isa.BR, isa.JR, isa.RET:
		return true
	}
	return false
}

// fusePairs returns the indices at which a macro-op pair starts in ops (each
// pair spans ops i and i+1; pairs never overlap). It scans greedily left to
// right, matching the hardware: decode sees the ops in order and fuses the
// first opportunity in each pair of slots.
func fusePairs(ops []isa.Op) []int {
	var pairs []int
	for i := 0; i+1 < len(ops); i++ {
		if fusible(&ops[i], &ops[i+1]) {
			pairs = append(pairs, i)
			i++
		}
	}
	return pairs
}

// fusible reports whether op a feeds op b in one of the fused patterns
// (Celio et al., "The Renewed Case for the Reduced Instruction Set
// Computer"): compare-and-branch, load-immediate-pair, and address
// generation feeding a load or an indexed add.
func fusible(a, b *isa.Op) bool {
	rd, ok := a.Writes()
	if !ok || rd == isa.RegZero || !readsReg(b, rd) {
		return false
	}
	switch a.Opcode {
	case isa.SLT, isa.SLE, isa.SEQ, isa.SNE, isa.SLTI:
		return b.Opcode == isa.BR
	case isa.LUI:
		return b.Opcode == isa.ADDI
	case isa.ADD, isa.ADDI, isa.SHLI:
		if b.Opcode == isa.LD {
			return true
		}
		return a.Opcode == isa.SHLI && b.Opcode == isa.ADD
	}
	return false
}

func readsReg(o *isa.Op, r isa.Reg) bool {
	reads, n := o.ReadRegs()
	for k := 0; k < n; k++ {
		if reads[k] == r {
			return true
		}
	}
	return false
}

// CanSweepKind reports whether the fused multi-axis sweep engine's timing
// lanes express this program kind's fetch policy. The lanes bake the
// speculative predictor-driven pipeline, so only backends that declare
// Sweepable (conv, bsa) qualify; others fall back to per-config replay.
func CanSweepKind(k isa.Kind) bool {
	return backend.PolicyFor(k).Sweepable
}
