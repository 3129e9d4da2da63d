package uarch

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// This file implements the unified multi-axis sweep engine. A sweep runs the
// same trace under N configurations drawn from a config grid whose axes are
// icache size, predictor tables, and core geometry (issue width, window
// size, FU count, front-end depth, latencies). Under SimulateMany that costs
// N full replays, but almost all of the work those replays do is identical:
// the committed stream fixes the fetch order, so every predictor variant
// sees the same history (predictor tables never observe timing), the dcache
// sees the same address sequence, each config's mispredictions classify the
// same way given its predictor, and the icache address stream — fetches plus
// wrong-path pollution — depends only on which predictor the config uses;
// only the per-config *outcomes* and the stall arithmetic differ.
//
// Sweep therefore splits the grid into one shared enrichment replay and N
// cheap per-config timing lanes:
//
//   - Pass A replays the trace once, driving the real dcache (shared: load
//     outcomes are config-independent) and a bpred.Bank holding one lane per
//     *distinct* predictor config — the grid's predictor classes. Each
//     class's mispredictions are classified and stored sparsely (ascending
//     event indices, kinds, wrong-path blocks), and the committed and
//     wrong-path line counts are accumulated for perfect-icache accounting.
//   - Pass B walks the committed block stream once per class through a
//     cache.StackDist profiler fed with that class's pollution stream,
//     yielding exact per-event fetch miss counts for every swept icache
//     size simultaneously. Classes profile independently (pollution alters
//     LRU state), but every class shares pass A and the block tables.
//   - Each lane then re-runs only the timing arithmetic — window, FU
//     scoreboard, rename ready times, retire, recovery — against the
//     precomputed outcomes of its (class, icache level) pair, over a
//     flattened operation table that strips decode work out of the hot
//     loop. Core-geometry axes need no shared state at all: they are plain
//     per-lane knobs of that arithmetic.
//
// Lane results are identical, field for field, to ReplayTrace under the
// same configuration (sweep_test.go enforces this exhaustively against
// SimulateMany, including cross-axis grids and per-axis marginals).

// laneOp is a predecoded operation — or a fused macro-op pair — holding
// exactly the fields laneSchedule needs, packed into one word so the
// scheduling loop extracts them with shifts (byte order, low to high: r0,
// r1, r2, w1, w2, flags, lat, unused; lat fits a byte because Table 1
// latencies top out at 8 cycles). The register encoding makes the loop
// branchless: unused read slots are padded with isa.RegZero, whose ready slot
// is never written, and unused write slots point at laneRegSink, which is
// never read — so every op does exactly three ready-table reads and two
// writes, no count checks.
type laneOp uint64

func packLaneOp(r0, r1, r2, w1, w2, flags, lat uint8) laneOp {
	return laneOp(uint64(r0) | uint64(r1)<<8 | uint64(r2)<<16 |
		uint64(w1)<<24 | uint64(w2)<<32 | uint64(flags)<<40 | uint64(lat)<<48)
}

const (
	laneLD uint8 = 1 << iota
	laneTerm
	laneFault
)

// laneRegSink is the write target of ops without one: a scratch slot past
// the architectural registers that no read slot can name.
const laneRegSink = isa.NumRegs

// laneRegsUsed bounds the live prefix of a laneRegs table: the architectural
// registers plus the sink.
const laneRegsUsed = isa.NumRegs + 1

// laneRegs is a lane's register-ready table. It is sized to the uint8 index
// space so the scheduling loop needs no bounds checks or masking; only the
// first laneRegsUsed slots are ever touched, so the dead tail costs no cache
// traffic.
type laneRegs [256]int64

// laneBlock is a predecoded block, indexed by BlockID in a laneProg slice.
// numOps is the block's architectural operation count; len(ops) is its
// window and FU footprint, smaller by one per macro-op pair fused at decode.
// The struct is kept small because tables cover every static block, most of
// which a short trace never executes.
type laneBlock struct {
	ops         []laneOp
	numOps      int32
	fetchCycles int32
}

// flattenSweepProgram predecodes every block once. The op tables of all
// blocks live in one arena allocation so lane walks stream through
// contiguous memory instead of chasing per-block slices. Under a fusing
// backend policy each macro-op pair (fusePairs) becomes one laneOp.
func flattenSweepProgram(prog *isa.Program, issueWidth int) []laneBlock {
	fuse := backend.PolicyFor(prog.Kind).FuseMacroOps
	lp := make([]laneBlock, len(prog.Blocks))
	total := 0
	for _, b := range prog.Blocks {
		if b != nil {
			total += len(b.Ops)
		}
	}
	arena := make([]laneOp, 0, total)
	for id, b := range prog.Blocks {
		if b == nil {
			continue
		}
		lb := &lp[id]
		lb.numOps = int32(len(b.Ops))
		lb.fetchCycles = fetchCyclesOf(len(b.Ops), issueWidth)
		var pairs []int
		if fuse {
			pairs = fusePairs(b.Ops)
		}
		off := len(arena)
		for i := 0; i < len(b.Ops); i++ {
			if len(pairs) > 0 && pairs[0] == i {
				arena = append(arena, laneOpOf(&b.Ops[i], &b.Ops[i+1]))
				pairs = pairs[1:]
				i++
				continue
			}
			arena = append(arena, laneOpOf(&b.Ops[i], nil))
		}
		lb.ops = arena[off:len(arena):len(arena)]
	}
	return lp
}

// fetchCyclesOf is how many cycles fetching a block of n operations takes
// (long conventional basic blocks stream over several cycles).
func fetchCyclesOf(n, issueWidth int) int32 {
	return int32(max((n+issueWidth-1)/issueWidth, 1))
}

// laneOpOf predecodes op a, or the macro-op pair (a, b) when b is non-nil.
// A pair issues as one operation: it reads a's sources and b's except a's
// destination (the fused datapath forwards it internally), writes both
// destinations, takes the slower half's latency, and carries b's load and
// terminator flags. The fusion patterns read at most two registers per pair
// (see fusible), so the three read slots always suffice.
func laneOpOf(a, b *isa.Op) laneOp {
	var rs [3]uint8
	n := 0
	reads, nr := a.ReadRegs()
	for k := 0; k < nr; k++ {
		rs[n] = uint8(reads[k])
		n++
	}
	w1, w2 := uint8(laneRegSink), uint8(laneRegSink)
	rd1, ok := a.Writes()
	if ok && rd1 != isa.RegZero {
		w1 = uint8(rd1)
	}
	last, lat := a, a.Opcode.Latency()
	if b != nil {
		reads, nr = b.ReadRegs()
		for k := 0; k < nr; k++ {
			if reads[k] != rd1 {
				rs[n] = uint8(reads[k])
				n++
			}
		}
		if rd, ok := b.Writes(); ok && rd != isa.RegZero {
			w2 = uint8(rd)
		}
		last, lat = b, max(lat, b.Opcode.Latency())
	}
	if last.Opcode == isa.CALL {
		w2 = uint8(isa.RegLR)
	}
	var flags uint8
	if last.Opcode == isa.LD {
		flags |= laneLD
	}
	if last.Opcode.IsBlockEnd() {
		flags |= laneTerm
	}
	if last.Opcode == isa.FAULT {
		flags |= laneFault
	}
	return packLaneOp(rs[0], rs[1], rs[2], w1, w2, flags, uint8(lat))
}

// widthTables returns a block table with fetchCycles recomputed for a
// non-base issue width. The op arena is shared with base — only the
// per-block metadata is copied.
func widthTables(prog *isa.Program, base []laneBlock, issueWidth int) []laneBlock {
	lp := append([]laneBlock(nil), base...)
	for id, b := range prog.Blocks {
		if b != nil {
			lp[id].fetchCycles = fetchCyclesOf(len(b.Ops), issueWidth)
		}
	}
	return lp
}

// sweepCancelChunk is how many lockstep events a lane group (or enrichment
// walk) processes between context checks (power of two; mirrors emu's replay
// chunking).
const sweepCancelChunk = 4096

// Per-event misprediction kinds as stored by the enrich pass. swFaultNoBlock
// is mpFault whose predicted block does not exist (nothing to shadow-issue).
const (
	swNone uint8 = iota
	swMisfetch
	swTrap
	swFault
	swFaultNoBlock
)

// sweepNoMp is the nextMp sentinel for a lane with no mispredictions left.
const sweepNoMp = ^uint32(0)

// sweepClass holds everything the enrichment passes compute for one
// predictor class — one distinct Predictor config in the grid (or the single
// implicit class under perfect prediction). Lanes read it concurrently and
// never write it.
type sweepClass struct {
	// Sparse mispredict streams: ascending event indices, a parallel kind
	// stream, and (fault kinds only, same order) the wrongly predicted
	// block. Mispredicts are a few percent of events, so this replaces
	// numEvents-sized dense tables with short arrays a lane consumes
	// through a cursor.
	mpEv       []uint32
	mpKind     []uint8
	faultBlock []isa.BlockID

	// Icache outcomes at every profiled level. fetchMiss is transposed —
	// [level*numEvents + event] — so each lane walks one contiguous
	// per-level run; wrongMiss is per level, per fault ordinal, for the
	// same locality reason. Both are nil when no lane of this class has a
	// real icache.
	fetchMiss []uint8
	wrongMiss [][]uint8
	icStats   []cache.Stats // per level

	// accesses is the class's total icache line traffic (committed fetches
	// plus this class's wrong-path pollution): what a perfect icache
	// reports, since it counts accesses but never misses.
	accesses int64

	bp bpred.Stats
}

// sweepShared is the config-independent half of the enrichment output.
type sweepShared struct {
	levels int // profiled icache levels; stride of fetchMiss
	// ldMiss is 1 per committed load that misses the shared dcache, 0 on a
	// hit: a maskable byte, so the scheduling loop folds L2 latency in with
	// arithmetic instead of a branch.
	ldMiss  []uint8
	noMiss  []uint8 // all-zero table for shadow passes (length ≥ any block's ops)
	dcStats cache.Stats
	classes []*sweepClass
}

// sweepEnrich carries pass A outputs that only pass B consumes.
type sweepEnrich struct {
	sh *sweepShared
	// poll is, per class and parallel to mpEv, the wrong-path block the
	// class fetches at that mispredict (NoBlock when nothing is fetched:
	// misfetches, nonexistent trap targets, fault-no-block).
	poll [][]isa.BlockID
}

// laneRing is the functional-unit scoreboard: a power-of-two ring of
// per-cycle busy counts with a sliding base. The scheduler only ever claims
// cycles in a bounded window at or after the current fetch cycle, so the
// ring covers every access without hashing. Counts are bytes, so the rings
// of a whole lockstep lane group stay L1-resident together; that is safe
// because a slot's count never exceeds NumFUs, which Config.Validate bounds
// at 255.
type laneRing struct {
	counts []uint8
	mask   int64
	base   int64 // counts hold cycles in [base, base+len(counts))
}

func newLaneRing() laneRing {
	// Power of two; grows on demand. The initial size is deliberately
	// small: a lane only needs to span the latencies in flight (tens of
	// cycles — grow handles the rare deep stall), and a whole lockstep
	// group's rings must stay L1-resident together, so every kilobyte here
	// is multiplied by the lane count.
	const size = 256
	return laneRing{counts: make([]uint8, size), mask: size - 1}
}

// advance slides the window start to cycle, clearing vacated slots. Cycles
// before the current fetch cycle can never be claimed again (operations
// issue strictly after fetch), so their counts are dead.
func (r *laneRing) advance(cycle int64) {
	n := cycle - r.base
	if n <= 0 {
		return
	}
	if n >= int64(len(r.counts)) {
		clear(r.counts)
	} else if n <= 4 {
		// Typical step: a block's one-to-few fetch cycles.
		for c := r.base; c < cycle; c++ {
			r.counts[c&r.mask] = 0
		}
	} else {
		// Stall-sized steps (icache misses, recovery) clear a run at a time;
		// the run wraps at most once.
		i := r.base & r.mask
		j := cycle & r.mask
		if i < j {
			clear(r.counts[i:j])
		} else {
			clear(r.counts[i:])
			clear(r.counts[:j])
		}
	}
	r.base = cycle
}

// grow doubles the ring until cycle fits, re-placing live counts.
func (r *laneRing) grow(cycle int64) {
	n := len(r.counts)
	for int64(n) <= cycle-r.base {
		n *= 2
	}
	nc := make([]uint8, n)
	nm := int64(n - 1)
	for c := r.base; c < r.base+int64(len(r.counts)); c++ {
		nc[c&nm] = r.counts[c&r.mask]
	}
	r.counts, r.mask = nc, nm
}

// laneScratch is the mutable scheduling working set — FU ring,
// register-ready tables, window ring. Sweep lanes pool it across sweeps
// (keyed by window geometry) so repeated daemon sweeps stop re-allocating
// it.
type laneScratch struct {
	ring   laneRing
	regs   laneRegs
	shadow laneRegs
	win    []windowEntry
}

// laneScratchPools maps WindowBlocks -> *sync.Pool of *laneScratch. The key
// is the one geometry knob baked into the scratch (the window ring's
// length); everything else resets cheaply.
var laneScratchPools sync.Map

func getLaneScratch(windowBlocks int) *laneScratch {
	p, ok := laneScratchPools.Load(windowBlocks)
	if !ok {
		p, _ = laneScratchPools.LoadOrStore(windowBlocks, &sync.Pool{})
	}
	if v := p.(*sync.Pool).Get(); v != nil {
		s := v.(*laneScratch)
		s.reset()
		return s
	}
	return newLaneScratch(windowBlocks)
}

func newLaneScratch(windowBlocks int) *laneScratch {
	// The pop-before-push discipline in drainWindow keeps at most
	// windowBlocks entries in flight; one spare slot keeps the ring
	// arithmetic simple.
	return &laneScratch{
		ring: newLaneRing(),
		win:  make([]windowEntry, windowBlocks+1),
	}
}

func putLaneScratch(windowBlocks int, s *laneScratch) {
	if p, ok := laneScratchPools.Load(windowBlocks); ok {
		p.(*sync.Pool).Put(s)
	}
}

func (s *laneScratch) reset() {
	clear(s.ring.counts)
	s.ring.base = 0
	clear(s.regs[:laneRegsUsed])
	clear(s.shadow[:laneRegsUsed])
	// win needs no clear: pushWindow writes every entry before popWindow
	// reads it.
}

// sweepLane is one configuration's view of the shared enrichment. fm and wm
// are this lane's level runs of its class's fetchMiss/wrongMiss (nil for a
// perfect icache).
type sweepLane struct {
	sh       *sweepShared
	cls      *sweepClass
	fm       []uint8
	wm       []uint8
	level    int    // profiler level of this config's icache size; -1 = perfect
	mpOff    int    // cursor into cls.mpEv/mpKind
	faultOff int    // cursor into cls.faultBlock / wm
	nextMp   uint32 // cls.mpEv[mpOff], or sweepNoMp when exhausted
}

// enrichSweepA replays the trace once, training the whole predictor-class
// Bank (nil classCfgs under perfect prediction) and the shared dcache, and
// recording per-class sparse mispredict streams, pollution blocks, and line
// traffic. classes has one entry per predictor class, already allocated.
func enrichSweepA(ctx context.Context, t *emu.Trace, base Config, classCfgs []bpred.Config, classes []*sweepClass) (*sweepEnrich, error) {
	dc, err := cache.New(base.DCache)
	if err != nil {
		return nil, fmt.Errorf("uarch: sweep: dcache: %w", err)
	}
	prog := t.Program()
	var bank *bpred.Bank
	var preds []isa.BlockID
	if len(classCfgs) > 0 {
		bank = bpred.NewBank(prog.Kind, classCfgs)
		preds = make([]isa.BlockID, bank.Len())
	}

	// Per-block line counts at the shared icache line size, so perfect-cache
	// access totals fall out of pass A without touching a profiler; the
	// count mirrors Cache.AccessRange (a zero-size block still touches its
	// first line).
	shift := uint32(bits.TrailingZeros32(uint32(base.ICache.LineBytes)))
	lineCnt := make([]int64, len(prog.Blocks))
	// Most blocks touch no memory; precompute which do (one pass over the
	// static program) so the dynamic handler skips the per-op scan for the
	// rest, and count each block's loads so the load-outcome stream is
	// allocated once at its exact size.
	hasMem := make([]bool, len(prog.Blocks))
	loads := make([]int32, len(prog.Blocks))
	maxOps := 0
	for id, b := range prog.Blocks {
		if b == nil {
			continue
		}
		sz := b.Size
		if sz == 0 {
			sz = 1
		}
		lineCnt[id] = int64((b.Addr+sz-1)>>shift - b.Addr>>shift + 1)
		for i := range b.Ops {
			switch b.Ops[i].Opcode {
			case isa.LD:
				loads[id]++
				hasMem[id] = true
			case isa.ST:
				hasMem[id] = true
			}
		}
		maxOps = max(maxOps, len(b.Ops))
	}
	totalLoads := 0
	for _, id := range t.BlockIDs() {
		totalLoads += int(loads[id])
	}

	en := &sweepEnrich{
		sh:   &sweepShared{classes: classes},
		poll: make([][]isa.BlockID, len(classes)),
	}
	sh := en.sh
	// Shadow scheduling passes read this zeroed miss table: wrong-path loads
	// assume L1 hits.
	sh.noMiss = make([]uint8, maxOps)
	sh.ldMiss = make([]uint8, 0, totalLoads)
	var commitLines int64
	pollLines := make([]int64, len(classes))
	ei := 0
	err = t.ReplayContext(ctx, func(ev *emu.BlockEvent) error {
		b := ev.Block
		commitLines += lineCnt[b.ID]
		if hasMem[b.ID] {
			memIdx := 0
			for i := range b.Ops {
				switch b.Ops[i].Opcode {
				case isa.LD:
					hit := true
					if memIdx < len(ev.MemAddrs) {
						hit = dc.Access(ev.MemAddrs[memIdx])
						memIdx++
					}
					var m uint8
					if !hit {
						m = 1
					}
					sh.ldMiss = append(sh.ldMiss, m)
				case isa.ST:
					if memIdx < len(ev.MemAddrs) {
						dc.Access(ev.MemAddrs[memIdx])
						memIdx++
					}
				}
			}
		}
		if ev.Next != isa.NoBlock && bank != nil {
			bank.Step(b, ev.Next, ev.Taken, ev.SuccIdx, preds)
			for c, predicted := range preds {
				if predicted == ev.Next {
					continue
				}
				cls := classes[c]
				var kind uint8
				wb := isa.NoBlock
				switch classifyMispredict(b, predicted, ev.Next) {
				case mpMisfetch:
					kind = swMisfetch
				case mpTrap:
					kind = swTrap
					// The wrong-path block pollutes the class's icache
					// stream only if it exists.
					if prog.Block(predicted) != nil {
						wb = predicted
						pollLines[c] += lineCnt[predicted]
					}
				case mpFault:
					if prog.Block(predicted) == nil {
						kind = swFaultNoBlock
						break
					}
					kind = swFault
					wb = predicted
					pollLines[c] += lineCnt[predicted]
					cls.faultBlock = append(cls.faultBlock, predicted)
				}
				cls.mpEv = append(cls.mpEv, uint32(ei))
				cls.mpKind = append(cls.mpKind, kind)
				en.poll[c] = append(en.poll[c], wb)
			}
		}
		ei++
		return nil
	})
	if err != nil {
		return nil, err
	}
	sh.dcStats = dc.Stats()
	for c, cls := range classes {
		cls.accesses = commitLines + pollLines[c]
		if bank != nil {
			cls.bp = bank.LaneStats(c)
		}
	}
	return en, nil
}

// enrichSweepB walks the committed block stream once through a class's
// stack-distance profiler, interleaving that class's wrong-path pollution at
// the recorded mispredict events, and fills the class's per-level fetch/
// wrong miss tables and stats.
func enrichSweepB(ctx context.Context, t *emu.Trace, prof *cache.StackDist, cls *sweepClass, poll []isa.BlockID) error {
	prog := t.Program()
	ids := t.BlockIDs()
	ne := len(ids)
	levels := prof.Levels()
	cls.fetchMiss = make([]uint8, ne*levels)
	cls.wrongMiss = make([][]uint8, levels)
	scratch := make([]int, levels)
	mpOff := 0
	for ei, id := range ids {
		if ei&(sweepCancelChunk-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b := prog.Blocks[id]
		clear(scratch)
		prof.AccessRange(b.Addr, b.Size, scratch)
		for l, m := range scratch {
			if m > 255 {
				return fmt.Errorf("uarch: sweep: block spans %d missing lines, exceeds encoding", m)
			}
			cls.fetchMiss[l*ne+ei] = uint8(m)
		}
		if mpOff < len(cls.mpEv) && cls.mpEv[mpOff] == uint32(ei) {
			kind := cls.mpKind[mpOff]
			wb := poll[mpOff]
			mpOff++
			switch kind {
			case swTrap:
				if wb != isa.NoBlock {
					pb := prog.Blocks[wb]
					prof.AccessRange(pb.Addr, pb.Size, nil)
				}
			case swFault:
				pb := prog.Blocks[wb]
				clear(scratch)
				prof.AccessRange(pb.Addr, pb.Size, scratch)
				for l, m := range scratch {
					if m > 255 {
						return fmt.Errorf("uarch: sweep: block spans %d missing lines, exceeds encoding", m)
					}
					cls.wrongMiss[l] = append(cls.wrongMiss[l], uint8(m))
				}
			}
		}
	}
	cls.icStats = make([]cache.Stats, levels)
	for l := 0; l < levels; l++ {
		cls.icStats[l] = prof.StatsAt(l)
	}
	return nil
}

// laneFlagState is the minority-path scheduling state — load outcomes,
// terminator and fault times. It lives behind a pointer in a noinline helper
// so the hot loop's live set fits the register file; inlining it back (or
// folding these updates into per-op masked arithmetic) measurably slows the
// sweep down.
type laneFlagState struct {
	ldMiss     []uint8
	ldOff      int
	l2         int64
	term       int64
	firstFault int64
}

// flagged applies a flagged op's extra scheduling: L2 latency on a missing
// load, terminator and first-fault completion times. Shadow passes wire the
// zeroed miss table in, so wrong-path loads assume L1 hits.
//
//go:noinline
func (fs *laneFlagState) flagged(flags uint8, done int64) int64 {
	if flags&laneLD != 0 {
		if fs.ldMiss[fs.ldOff] != 0 {
			done += fs.l2
		}
		fs.ldOff++
	}
	if flags&laneTerm != 0 {
		fs.term = done
	}
	if flags&laneFault != 0 && fs.firstFault == 0 {
		fs.firstFault = done
	}
	return done
}

// laneSchedule is the timing kernel every engine runs: it issues a
// predecoded block through rename, dataflow and the FU pool starting at
// issue, against the register-ready table regs. A commit pass charges L2
// latency to loads from the ldMiss stream at ldOff (and advances the
// cursor); a shadow (wrong-path) pass reads the all-hit noMiss table and
// only consumes FU slots.
func (s *Sim) laneSchedule(lb *laneBlock, issue int64, regs *laneRegs, commit bool) schedTimes {
	// The FU claim is inlined with the ring state held in locals: this loop
	// runs once per operation and dominates simulation time. grow is the
	// only call that moves counts; advance (which moves base) never runs
	// mid-block.
	r := &s.scr.ring
	base, counts := r.base, r.counts
	if len(counts) == 0 {
		return schedTimes{done: issue, term: issue + 1} // unreachable: newLaneRing allocates
	}
	// mask mirrors len(counts)-1 so ready&mask provably stays in bounds.
	mask := uint64(len(counts)) - 1
	limit := uint8(s.cfg.NumFUs)
	fs := laneFlagState{l2: int64(s.cfg.L2Latency), term: issue + 1, ldMiss: s.noMiss}
	if commit {
		fs.ldMiss = s.ldMiss
		fs.ldOff = s.ldOff
	}
	stDone := issue
	for _, op := range lb.ops {
		// Branchless operand reads: unused slots read RegZero's slot, which
		// is never written and so never raises ready. max compiles to
		// conditional moves — these compares are data-dependent, so branches
		// here would mispredict constantly.
		ready := max(issue, regs[op&0xff], regs[(op>>8)&0xff], regs[(op>>16)&0xff])
		// No ready < base clamp is needed: ready starts at issue, which is at
		// or past the fetch cycle the ring base was advanced to.
		for {
			if uint64(ready-base) > mask {
				r.grow(ready)
				counts = r.counts
				if len(counts) == 0 {
					break // unreachable: grow only enlarges
				}
				mask = uint64(len(counts)) - 1
			}
			if c := counts[uint64(ready)&mask]; c < limit {
				counts[uint64(ready)&mask] = c + 1
				break
			}
			ready++
		}
		done := ready + int64(op>>48)
		if flags := uint8(op >> 40); flags != 0 {
			// Flagged ops (loads, terminators, faults) are the minority.
			done = fs.flagged(flags, done)
		}
		// Branchless writes: ops without a destination write the sink slot,
		// which is never read.
		regs[(op>>24)&0xff] = done
		regs[(op>>32)&0xff] = done
		stDone = max(stDone, done)
	}
	if commit {
		s.ldOff = fs.ldOff
	}
	return schedTimes{done: stDone, term: fs.term, firstFault: fs.firstFault}
}

// laneSchedule2 is laneSchedule for two committed lanes at once. Every lane
// schedules the identical operation stream (the per-width tables share one op
// arena), so fusing a pair gives the core two independent dependency chains
// per op where the single-lane loop is bound by one serial regs
// store-to-load chain. Results are bit-identical to two laneSchedule calls:
// the lanes touch disjoint state except the read-only shared streams.
func laneSchedule2(sa, sb *Sim, lb *laneBlock, issueA, issueB int64) (schedTimes, schedTimes) {
	ra, rb := &sa.scr.ring, &sb.scr.ring
	regsA, regsB := &sa.scr.regs, &sb.scr.regs
	baseA, countsA := ra.base, ra.counts
	baseB, countsB := rb.base, rb.counts
	if len(countsA) == 0 || len(countsB) == 0 {
		// Unreachable: newLaneRing allocates.
		return schedTimes{done: issueA, term: issueA + 1}, schedTimes{done: issueB, term: issueB + 1}
	}
	maskA := uint64(len(countsA)) - 1
	maskB := uint64(len(countsB)) - 1
	limitA := uint8(sa.cfg.NumFUs)
	limitB := uint8(sb.cfg.NumFUs)
	fsA := laneFlagState{l2: int64(sa.cfg.L2Latency), term: issueA + 1, ldMiss: sa.ldMiss, ldOff: sa.ldOff}
	fsB := laneFlagState{l2: int64(sb.cfg.L2Latency), term: issueB + 1, ldMiss: sb.ldMiss, ldOff: sb.ldOff}
	stDoneA, stDoneB := issueA, issueB
	for _, op := range lb.ops {
		readyA := max(issueA, regsA[op&0xff], regsA[(op>>8)&0xff], regsA[(op>>16)&0xff])
		readyB := max(issueB, regsB[op&0xff], regsB[(op>>8)&0xff], regsB[(op>>16)&0xff])
		for {
			if uint64(readyA-baseA) > maskA {
				ra.grow(readyA)
				countsA = ra.counts
				if len(countsA) == 0 {
					break // unreachable: grow only enlarges
				}
				maskA = uint64(len(countsA)) - 1
			}
			if c := countsA[uint64(readyA)&maskA]; c < limitA {
				countsA[uint64(readyA)&maskA] = c + 1
				break
			}
			readyA++
		}
		for {
			if uint64(readyB-baseB) > maskB {
				rb.grow(readyB)
				countsB = rb.counts
				if len(countsB) == 0 {
					break // unreachable: grow only enlarges
				}
				maskB = uint64(len(countsB)) - 1
			}
			if c := countsB[uint64(readyB)&maskB]; c < limitB {
				countsB[uint64(readyB)&maskB] = c + 1
				break
			}
			readyB++
		}
		lat := int64(op >> 48)
		doneA := readyA + lat
		doneB := readyB + lat
		if flags := uint8(op >> 40); flags != 0 {
			doneA = fsA.flagged(flags, doneA)
			doneB = fsB.flagged(flags, doneB)
		}
		regsA[(op>>24)&0xff] = doneA
		regsA[(op>>32)&0xff] = doneA
		regsB[(op>>24)&0xff] = doneB
		regsB[(op>>32)&0xff] = doneB
		stDoneA = max(stDoneA, doneA)
		stDoneB = max(stDoneB, doneB)
	}
	sa.ldOff = fsA.ldOff
	sb.ldOff = fsB.ldOff
	return schedTimes{done: stDoneA, term: fsA.term, firstFault: fsA.firstFault},
		schedTimes{done: stDoneB, term: fsB.term, firstFault: fsB.firstFault}
}

// sweepRecover is recover for a lane: the kind, the wrong-path block and the
// shadow fetch's icache outcome all come from the lane's class streams.
func (s *Sim) sweepRecover(kind uint8, trapResolve, issue int64) (int64, bool) {
	sw := s.sw
	switch kind {
	case swMisfetch:
		s.res.Misfetches++
		return trapResolve, false
	case swTrap:
		s.res.TrapMispredicts++
		return trapResolve, false
	case swFaultNoBlock:
		s.res.FaultMispredicts++
		return trapResolve, true
	}
	s.res.FaultMispredicts++
	pb := &s.lp[sw.cls.faultBlock[sw.faultOff]]
	shadowIssue := issue + 1
	if sw.wm != nil {
		if misses := int(sw.wm[sw.faultOff]); misses > 0 {
			shadowIssue += int64(s.cfg.L2Latency + (misses - 1))
		}
	}
	sw.faultOff++
	return s.shadowResolve(pb, shadowIssue, trapResolve), true
}

// sweepStep is OnBlock for a lane: the same window, stall, retire and
// recovery arithmetic, with every cache/predictor outcome precomputed. It is
// split into sweepPre (window/fetch) and sweepPost (retire/recovery) halves
// so the lockstep loop can fuse the scheduling of two lanes in between.
func (s *Sim) sweepStep(idx, ei int) {
	lb, issue := s.sweepPre(idx, ei)
	sched := s.laneSchedule(lb, issue, &s.scr.regs, true)
	s.sweepPost(lb, ei, issue, sched)
}

// sweepPre is the front half of sweepStep: window drain, fetch stalls, cycle
// and FU-ring advance. It returns the lane's table entry for the block and
// the issue time its scheduling starts from.
func (s *Sim) sweepPre(idx, ei int) (lb *laneBlock, issue int64) {
	sw := s.sw
	lb = &s.lp[idx]
	fetch := s.drainWindow(s.nextFetch, lb)
	if sw.fm != nil {
		if misses := int(sw.fm[ei]); misses > 0 {
			stall := int64(s.cfg.L2Latency + (misses - 1))
			s.res.FetchStallICache += stall
			fetch += stall
		}
	}
	s.cycle = fetch
	s.scr.ring.advance(fetch)
	return lb, fetch + int64(s.cfg.FrontEndDepth)
}

// sweepPost is the back half of sweepStep: retire bookkeeping, window push
// and mispredict/fault recovery for the block just scheduled.
func (s *Sim) sweepPost(lb *laneBlock, ei int, issue int64, sched schedTimes) {
	sw := s.sw
	fetch := issue - int64(s.cfg.FrontEndDepth)
	s.retire(lb, sched.done)

	nextFetch := fetch + int64(lb.fetchCycles)
	if uint32(ei) == sw.nextMp {
		kind := sw.cls.mpKind[sw.mpOff]
		sw.mpOff++
		if sw.mpOff < len(sw.cls.mpEv) {
			sw.nextMp = sw.cls.mpEv[sw.mpOff]
		} else {
			sw.nextMp = sweepNoMp
		}
		resolve, wasFault := s.sweepRecover(kind, sched.term, issue)
		nextFetch = s.restartAfter(nextFetch, resolve, wasFault)
	}
	s.nextFetch = nextFetch
}

// sweepFinish is Finish for a lane: shared statistics are copied into the
// per-config result. A perfect icache reports the class's line accesses
// (committed fetches plus that class's pollution) with zero misses, exactly
// like a live perfect cache.
func (s *Sim) sweepFinish() *Result {
	s.res.Cycles = s.lastRetire
	sw := s.sw
	if sw.level >= 0 {
		s.res.ICache = sw.cls.icStats[sw.level]
	} else {
		s.res.ICache = cache.Stats{Accesses: sw.cls.accesses}
	}
	s.res.DCache = sw.sh.dcStats
	s.res.Bpred = sw.cls.bp
	return &s.res
}

// normalizeSweepConfigs applies Config and cache-geometry defaults so
// equality comparison is meaningful.
func normalizeSweepConfigs(cfgs []Config) []Config {
	norm := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		cfg.ICache = cfg.ICache.Normalize()
		cfg.DCache = cfg.DCache.Normalize()
		norm[i] = cfg
	}
	return norm
}

// stripSweepAxes zeroes the swept axes of a normalized config, leaving only
// the fields every lane must share: icache geometry (ways, line size),
// dcache config, perfect-BP mode, and the fetch rivals.
func stripSweepAxes(cfg Config) Config {
	cfg.ICache.SizeBytes = 0
	cfg.Predictor = bpred.Config{}
	cfg.IssueWidth = 0
	cfg.WindowBlocks = 0
	cfg.WindowOps = 0
	cfg.NumFUs = 0
	cfg.FrontEndDepth = 0
	cfg.L2Latency = 0
	cfg.FaultSquashPenalty = 0
	return cfg
}

// sweepCheck validates that normalized configs form a sweepable grid.
func sweepCheck(norm []Config) error {
	if len(norm) == 0 {
		return fmt.Errorf("uarch: sweep: no configurations")
	}
	ref := stripSweepAxes(norm[0])
	for i, cfg := range norm {
		if cfg.TraceCache.Enabled() || cfg.MultiBlock.Enabled() {
			return fmt.Errorf("uarch: sweep: config %d uses a trace cache or multi-block fetch", i)
		}
		if err := cfg.Validate(); err != nil {
			return fmt.Errorf("uarch: sweep: config %d: %w", i, err)
		}
		if stripSweepAxes(cfg) != ref {
			return fmt.Errorf("uarch: sweep: config %d differs from config 0 beyond the swept axes", i)
		}
	}
	return nil
}

// CanSweep reports whether Sweep accepts cfgs, and if not, why. A grid is
// sweepable when every configuration is valid, uses neither a trace cache
// nor multi-block fetch (their fetch paths observe per-config timing, which
// breaks the shared enrichment), and differs from config 0 only along the swept axes: ICache.SizeBytes
// (perfect allowed), the Predictor tables, and the core-geometry knobs
// (IssueWidth, WindowBlocks, WindowOps, NumFUs, FrontEndDepth, L2Latency,
// FaultSquashPenalty). Icache ways and line size, the dcache, and perfect-BP
// mode must be shared. Rejected grids fall back to SimulateMany, which
// accepts anything.
func CanSweep(cfgs []Config) (bool, string) {
	if err := sweepCheck(normalizeSweepConfigs(cfgs)); err != nil {
		return false, err.Error()
	}
	return true, ""
}

// Sweep simulates one trace under every configuration of a multi-axis grid
// (see CanSweep for the axes), replaying the trace once — plus one cheap
// timing lane per configuration and one profiler walk per distinct
// predictor — instead of once per configuration. Results are returned in
// configuration order and are identical, field for field, to SimulateMany
// on the same inputs. workers bounds lane concurrency as in SimulateMany.
func Sweep(t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return SweepContext(context.Background(), t, cfgs, workers)
}

// SweepContext is Sweep with cooperative cancellation: the shared enrichment
// replay and every lockstep timing lane check ctx between trace chunks, and
// the call returns an error satisfying errors.Is(err, ctx.Err()) with all
// lane workers drained once the context is done.
func SweepContext(ctx context.Context, t *emu.Trace, cfgs []Config, workers int) ([]*Result, error) {
	return SweepPredecoded(ctx, t, cfgs, workers, nil)
}

// SweepPredecoded is SweepContext reusing a prebuilt Predecode of the
// trace's program (nil, or one built for a different program or issue width,
// flattens fresh — results are identical either way).
func SweepPredecoded(ctx context.Context, t *emu.Trace, cfgs []Config, workers int, pre *Predecoded) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	norm := normalizeSweepConfigs(cfgs)
	if err := sweepCheck(norm); err != nil {
		return nil, err
	}
	base := norm[0]
	prog := t.Program()
	if !CanSweepKind(prog.Kind) {
		return nil, fmt.Errorf("uarch: sweep: %s programs are not sweepable (fetch policy outside the lane pipeline); use SimulateMany", prog.Kind)
	}

	// Predictor classes: one Bank lane (and one pollution stream) per
	// distinct Predictor config, in first-appearance order. Perfect
	// prediction collapses to a single implicit class with no mispredicts.
	classOf := make([]int, len(norm))
	var classCfgs []bpred.Config
	if !base.PerfectBP {
		idx := make(map[bpred.Config]int)
		for i, cfg := range norm {
			c, ok := idx[cfg.Predictor]
			if !ok {
				c = len(classCfgs)
				idx[cfg.Predictor] = c
				classCfgs = append(classCfgs, cfg.Predictor)
			}
			classOf[i] = c
		}
	}
	nClasses := len(classCfgs)
	if nClasses == 0 {
		nClasses = 1
	}
	classes := make([]*sweepClass, nClasses)
	for c := range classes {
		classes[c] = &sweepClass{}
	}

	en, err := enrichSweepA(ctx, t, base, classCfgs, classes)
	if err != nil {
		return nil, err
	}
	sh := en.sh

	// Profile each class that has at least one real-icache lane. All
	// profilers share one level range (the grid's min/max swept sizes), so
	// every lane's size maps to the same level index.
	var sizes []int
	for _, cfg := range norm {
		if cfg.ICache.SizeBytes != 0 {
			sizes = append(sizes, cfg.ICache.SizeBytes)
		}
	}
	levelOf := make(map[int]int)
	if len(sizes) > 0 {
		minSize, maxSize := sizes[0], sizes[0]
		for _, sz := range sizes[1:] {
			if sz < minSize {
				minSize = sz
			}
			if sz > maxSize {
				maxSize = sz
			}
		}
		profiled := make([]bool, nClasses)
		for i, cfg := range norm {
			if cfg.ICache.SizeBytes != 0 {
				profiled[classOf[i]] = true
			}
		}
		profs := make([]*cache.StackDist, nClasses)
		var profClasses []int
		for c := range classes {
			if !profiled[c] {
				continue
			}
			prof, err := cache.NewStackDist(base.ICache, minSize, maxSize)
			if err != nil {
				return nil, fmt.Errorf("uarch: sweep: %w", err)
			}
			profs[c] = prof
			sh.levels = prof.Levels()
			profClasses = append(profClasses, c)
		}
		for sz, lvl := minSize, 0; lvl < sh.levels; sz, lvl = sz*2, lvl+1 {
			levelOf[sz] = lvl
		}
		// Classes profile independently (each walk folds in its own
		// pollution stream), so they fan out across workers.
		wB := workers
		if wB <= 0 {
			wB = runtime.GOMAXPROCS(0)
		}
		if wB > len(profClasses) {
			wB = len(profClasses)
		}
		err = fanOut(ctx, len(profClasses), wB, func(j int) error {
			c := profClasses[j]
			return enrichSweepB(ctx, t, profs[c], classes[c], en.poll[c])
		})
		if err != nil {
			return nil, err
		}
	}
	en.poll = nil // pass B consumed the pollution streams

	// Block tables: the op arena is issue-width-independent; only
	// fetchCycles varies, so non-base widths get a cheap metadata copy over
	// the shared arena.
	lpBase := pre.tables(prog, base.IssueWidth)
	lpByWidth := map[int][]laneBlock{base.IssueWidth: lpBase}
	lpFor := func(iw int) []laneBlock {
		lp, ok := lpByWidth[iw]
		if !ok {
			lp = widthTables(prog, lpBase, iw)
			lpByWidth[iw] = lp
		}
		return lp
	}
	ids := t.BlockIDs()
	ne := len(ids)

	sims := make([]*Sim, len(norm))
	for i, cfg := range norm {
		cls := classes[classOf[i]]
		lane := &sweepLane{
			sh:     sh,
			cls:    cls,
			level:  -1,
			nextMp: sweepNoMp,
		}
		if len(cls.mpEv) > 0 {
			lane.nextMp = cls.mpEv[0]
		}
		if cfg.ICache.SizeBytes != 0 {
			lvl, ok := levelOf[cfg.ICache.SizeBytes]
			if !ok {
				return nil, fmt.Errorf("uarch: sweep: config %d: size %dB is not a profiled level", i, cfg.ICache.SizeBytes)
			}
			lane.level = lvl
			lane.fm = cls.fetchMiss[lvl*ne : (lvl+1)*ne]
			lane.wm = cls.wrongMiss[lvl]
		}
		scr := getLaneScratch(cfg.WindowBlocks)
		sims[i] = &Sim{
			cfg:    cfg,
			lp:     lpFor(cfg.IssueWidth),
			scr:    scr,
			win:    scr.win,
			ldMiss: sh.ldMiss,
			noMiss: sh.noMiss,
			sw:     lane,
		}
	}

	// Lanes advance through the trace in lockstep, grouped by worker: every
	// lane in a group consumes each predecoded block back to back while it is
	// hot in cache, instead of streaming the whole trace once per lane. Lanes
	// never interact, so the grouping (and group count) cannot change results.
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(sims) {
		w = len(sims)
	}
	results := make([]*Result, len(norm))
	err = fanOut(ctx, w, w, func(g int) error {
		lo := g * len(sims) / w
		hi := (g + 1) * len(sims) / w
		group := sims[lo:hi]
		for ei, id := range ids {
			// The same chunked check as Trace.ReplayContext, so a canceled
			// sweep stops mid-lane rather than after the full event stream.
			if ei&(sweepCancelChunk-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			// Lanes are fused in pairs so each block's scheduling loop carries
			// two independent dependency chains (see laneSchedule2); an odd
			// trailing lane steps alone.
			i := 0
			for ; i+2 <= len(group); i += 2 {
				a, b := group[i], group[i+1]
				lbA, issueA := a.sweepPre(int(id), ei)
				lbB, issueB := b.sweepPre(int(id), ei)
				schedA, schedB := laneSchedule2(a, b, lbA, issueA, issueB)
				a.sweepPost(lbA, ei, issueA, schedA)
				b.sweepPost(lbB, ei, issueB, schedB)
			}
			if i < len(group) {
				group[i].sweepStep(int(id), ei)
			}
		}
		for i, s := range group {
			results[lo+i] = s.sweepFinish()
			putLaneScratch(s.cfg.WindowBlocks, s.scr)
			s.scr, s.win = nil, nil
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
