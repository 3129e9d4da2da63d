package ir

import (
	"fmt"
	"math/bits"
)

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder of a depth-first search. Unreachable blocks are omitted.
func (f *Func) ReversePostorder() []*Block {
	var post []*Block
	visited := make(map[*Block]bool, len(f.Blocks))
	var dfs func(*Block)
	dfs = func(b *Block) {
		visited[b] = true
		for _, s := range b.Succs {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate dominator of every reachable block using
// the Cooper/Harvey/Kennedy iterative algorithm. The entry's idom is itself.
func (f *Func) Dominators() map[*Block]*Block {
	rpo := f.ReversePostorder()
	index := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*Block]*Block, len(rpo))
	idom[f.Entry] = f.Entry
	f.ComputePreds()

	intersect := func(a, b *Block) *Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if b == f.Entry {
				continue
			}
			var newIdom *Block
			for _, p := range b.Preds {
				if idom[p] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given an idom map.
func Dominates(idom map[*Block]*Block, a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}

// BackEdge is a CFG edge whose head dominates its tail: the defining edge of
// a natural loop.
type BackEdge struct {
	From *Block // loop latch
	To   *Block // loop header
}

// BackEdges returns the natural-loop back edges of the function. The block
// enlargement optimization uses this to avoid combining separate loop
// iterations (paper rule 4).
func (f *Func) BackEdges() []BackEdge {
	idom := f.Dominators()
	var edges []BackEdge
	for _, b := range f.ReversePostorder() {
		for _, s := range b.Succs {
			if Dominates(idom, s, b) {
				edges = append(edges, BackEdge{From: b, To: s})
			}
		}
	}
	return edges
}

// RegSet is a bitset over virtual registers.
type RegSet []uint64

// NewRegSet returns an empty set able to hold registers below n.
func NewRegSet(n Reg) RegSet { return make(RegSet, regWords(n)) }

func regWords(n Reg) int { return (int(n) + 63) / 64 }

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	w := int(r) >> 6
	return r >= 0 && w < len(s) && s[w]&(1<<(uint(r)&63)) != 0
}

// Add puts r in the set.
func (s RegSet) Add(r Reg) { s[r>>6] |= 1 << (uint(r) & 63) }

// ForEach calls fn for every register in the set, in increasing order.
func (s RegSet) ForEach(fn func(Reg)) {
	for w, x := range s {
		for x != 0 {
			fn(Reg(w<<6 + bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
}

// LiveSets holds per-block liveness: In(b) is the set of virtual registers
// live on entry to b, Out(b) the set live on exit. Sets are indexed by
// block position, so a block's ID must be its index in Func.Blocks (which
// Module.Validate enforces).
type LiveSets struct {
	words   int
	in, out []uint64 // one set of words uint64s per block, in block order
}

// In returns the registers live on entry to b.
func (ls *LiveSets) In(b *Block) RegSet { return row(ls.in, b.ID, ls.words) }

// Out returns the registers live on exit from b.
func (ls *LiveSets) Out(b *Block) RegSet { return row(ls.out, b.ID, ls.words) }

// row returns block i's set from a flat array of per-block sets.
func row(sets []uint64, i, words int) RegSet {
	return RegSet(sets[i*words : (i+1)*words : (i+1)*words])
}

// Liveness computes live-in/live-out sets by iterative backward dataflow.
// Every register the function mentions must be below f.NextReg.
func (f *Func) Liveness() *LiveSets {
	for i, b := range f.Blocks {
		if b.ID != i {
			panic(fmt.Sprintf("ir: Liveness on %s: block at %d has ID %d", f.Name, i, b.ID))
		}
	}
	f.ComputePreds()
	n, words := len(f.Blocks), regWords(f.NextReg)
	ls := &LiveSets{words: words, in: make([]uint64, n*words), out: make([]uint64, n*words)}
	use, def := make([]uint64, n*words), make([]uint64, n*words)
	for i, b := range f.Blocks {
		u, d := row(use, i, words), row(def, i, words)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			for _, r := range in.Uses() {
				if !d.Has(r) {
					u.Add(r)
				}
			}
			if dr := in.Def(); dr != NoReg {
				d.Add(dr)
			}
		}
	}
	changed := true
	for changed {
		changed = false
		// Backward order converges faster; any order is correct. Out only
		// feeds this block's In, so a pass that changes no In is final.
		for i := n - 1; i >= 0; i-- {
			out := row(ls.out, i, words)
			for _, s := range f.Blocks[i].Succs {
				for w, x := range row(ls.in, s.ID, words) {
					out[w] |= x
				}
			}
			in, u, d := row(ls.in, i, words), row(use, i, words), row(def, i, words)
			for w := range in {
				if nw := u[w] | out[w]&^d[w]; nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return ls
}
