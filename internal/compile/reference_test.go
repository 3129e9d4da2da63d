package compile

import (
	"fmt"
	"testing"

	"bsisa/internal/ir"
	"bsisa/internal/testgen"
	"bsisa/internal/workload"
)

// refLiveness is a deliberately naive reference for ir.Func.Liveness, kept
// as the oracle the bitset version is checked against: per-block sets are
// maps keyed by block pointer and register, iterated to a fixed point.
func refLiveness(f *ir.Func) (liveIn, liveOut map[*ir.Block]map[ir.Reg]bool) {
	liveIn = make(map[*ir.Block]map[ir.Reg]bool, len(f.Blocks))
	liveOut = make(map[*ir.Block]map[ir.Reg]bool, len(f.Blocks))
	use := make(map[*ir.Block]map[ir.Reg]bool, len(f.Blocks))
	def := make(map[*ir.Block]map[ir.Reg]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		u, d := map[ir.Reg]bool{}, map[ir.Reg]bool{}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Uses() {
				if !d[r] {
					u[r] = true
				}
			}
			if dr := in.Def(); dr != ir.NoReg {
				d[dr] = true
			}
		}
		use[b], def[b] = u, d
		liveIn[b] = map[ir.Reg]bool{}
		liveOut[b] = map[ir.Reg]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := liveOut[b]
			for _, s := range b.Succs {
				for r := range liveIn[s] {
					if !out[r] {
						out[r] = true
						changed = true
					}
				}
			}
			in := liveIn[b]
			for r := range use[b] {
				if !in[r] {
					in[r] = true
					changed = true
				}
			}
			for r := range out {
				if !def[b][r] && !in[r] {
					in[r] = true
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}

// refDefCount is the map-based reference for defCount.
func refDefCount(f *ir.Func) map[ir.Reg]int {
	defs := map[ir.Reg]int{}
	for _, p := range f.Params {
		defs[p]++
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defs[d]++
			}
		}
	}
	return defs
}

// sameRegSet reports whether the bitset and the reference map hold the same
// registers.
func sameRegSet(got ir.RegSet, want map[ir.Reg]bool) bool {
	n, ok := 0, true
	got.ForEach(func(r ir.Reg) { n, ok = n+1, ok && want[r] })
	return ok && n == len(want)
}

// checkAgainstReferences compares Liveness and defCount with their
// references on every function of the module.
func checkAgainstReferences(t *testing.T, label string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		ls := f.Liveness()
		refIn, refOut := refLiveness(f)
		for _, b := range f.Blocks {
			if !sameRegSet(ls.In(b), refIn[b]) {
				t.Fatalf("%s %s b%d: live-in %v, reference %v", label, f.Name, b.ID, regList(ls.In(b)), refIn[b])
			}
			if !sameRegSet(ls.Out(b), refOut[b]) {
				t.Fatalf("%s %s b%d: live-out %v, reference %v", label, f.Name, b.ID, regList(ls.Out(b)), refOut[b])
			}
		}
		defs, refDefs := defCount(f), refDefCount(f)
		for r := range refDefs {
			if int(r) >= len(defs) {
				t.Fatalf("%s %s: %s defined but NextReg is %d", label, f.Name, r, f.NextReg)
			}
		}
		for r, n := range defs {
			if int(n) != refDefs[ir.Reg(r)] {
				t.Fatalf("%s %s: v%d has %d defs, reference %d", label, f.Name, r, n, refDefs[ir.Reg(r)])
			}
		}
	}
}

func regList(s ir.RegSet) []ir.Reg {
	var out []ir.Reg
	s.ForEach(func(r ir.Reg) { out = append(out, r) })
	return out
}

// TestDenseAnalysesMatchReference checks the bitset liveness and the
// slice-based def counts against the map-based references on every
// function of the eight Table-2 workloads and of random programs, before
// and after optimization, and after inlining and if-conversion reshape
// the CFG.
func TestDenseAnalysesMatchReference(t *testing.T) {
	var srcs []string
	var names []string
	for _, p := range workload.Profiles(0.02) {
		src, err := workload.Source(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs, names = append(srcs, src), append(names, p.Name)
	}
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		srcs, names = append(srcs, testgen.Program(seed)), append(names, fmt.Sprintf("seed-%d", seed))
	}
	for i, src := range srcs {
		for _, optimize := range []bool{false, true} {
			m, err := Frontend(src, names[i], optimize)
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			checkAgainstReferences(t, fmt.Sprintf("%s opt=%v", names[i], optimize), m)
			if !optimize {
				continue
			}
			Inline(m, 0)
			IfConvert(m, 0)
			Optimize(m)
			checkAgainstReferences(t, names[i]+" inline+ifconvert", m)
		}
	}
}
