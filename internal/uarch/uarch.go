// Package uarch is the cycle-level timing model of the paper's processor:
// a sixteen-wide, dynamically scheduled machine in the HPS style (§4.3).
//
// Configuration mirrors the paper: the processor fetches and issues one
// block per cycle (an atomic block for the block-structured ISA, a basic
// block for the conventional ISA), holds up to 32 blocks / 512 operations in
// flight, renames registers (so only true dependencies stall), executes on
// sixteen uniform fully pipelined functional units with the Table-1
// latencies, retires one block per cycle in order, and has an L1 dcache plus
// a perfect L2 with a six-cycle access time. The L1 icache is the
// experimental variable. Branch prediction is the two-level adaptive
// predictor (conventional) or the paper's modified multi-successor variant
// (block-structured); perfect prediction is available for the Figure-4
// experiment.
//
// The model is execution-driven: it consumes the committed block stream the
// functional emulator produces. Correct-path timing is modeled exactly
// (dataflow, FU contention, cache misses); wrong-path work appears as
// recovery penalties. Trap (direction) mispredictions restart fetch when the
// mispredicted branch executes; fault (variant) mispredictions shadow-issue
// the wrongly fetched variant — a real static block — through the scheduler
// to find when its firing fault resolves, charging functional-unit slots for
// the discarded work, exactly the extra cost the paper attributes to fault
// mispredictions.
package uarch

import (
	"errors"
	"fmt"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
)

// Config parameterizes the processor. Zero values take the paper's
// configuration.
type Config struct {
	IssueWidth   int // operations fetched/issued per cycle per block (16)
	WindowBlocks int // in-flight block limit (32)
	WindowOps    int // in-flight operation limit (512)
	NumFUs       int // uniform, fully pipelined functional units (16)
	// FrontEndDepth is the fetch-to-issue depth in cycles; a misprediction
	// restarts fetch and pays this refill (default 4).
	FrontEndDepth int
	// L2Latency is the perfect-L2 access time added to L1 misses (6).
	L2Latency int
	// FaultSquashPenalty is the extra recovery cost of a fault
	// misprediction beyond the front-end refill: squashing an atomic block
	// restores the whole block's rename state and reissues it, which the
	// paper identifies as the reason "mispredicted fault operations incur
	// an extra penalty not associated with ordinary branch mispredictions"
	// (default 4 cycles).
	FaultSquashPenalty int
	// ICache geometry; SizeBytes 0 = perfect (the Figures 6/7 reference
	// point).
	ICache cache.Config
	// DCache geometry; default 16 KB, 4-way.
	DCache cache.Config
	// Predictor sizes the branch predictor tables.
	Predictor bpred.Config
	// PerfectBP disables branch prediction entirely (every fetch is
	// correct): the Figure-4 configuration.
	PerfectBP bool
	// TraceCache, when enabled, adds a Rotenberg-style trace cache to the
	// fetch unit (see tracecache.go) — the paper's §3 related-work rival.
	TraceCache TraceCacheConfig
	// MultiBlock, when enabled, fetches several basic blocks per cycle via
	// multiple predictions and an interleaved icache (see multiblock.go) —
	// the paper's other §3 rival family. Costs one extra front-end stage.
	MultiBlock MultiBlockConfig
}

func (c Config) withDefaults() Config {
	if c.IssueWidth == 0 {
		c.IssueWidth = 16
	}
	if c.WindowBlocks == 0 {
		c.WindowBlocks = 32
	}
	if c.WindowOps == 0 {
		c.WindowOps = 512
	}
	if c.NumFUs == 0 {
		c.NumFUs = 16
	}
	if c.FrontEndDepth == 0 {
		c.FrontEndDepth = 4
	}
	if c.L2Latency == 0 {
		c.L2Latency = 6
	}
	if c.FaultSquashPenalty == 0 {
		c.FaultSquashPenalty = 4
	}
	if c.DCache.SizeBytes == 0 {
		c.DCache.SizeBytes = 16 * 1024
	}
	return c
}

// ErrBadConfig is wrapped by every Config.Validate failure, so callers can
// classify validation errors with errors.Is without matching message text.
var ErrBadConfig = errors.New("uarch: invalid configuration")

// Validate rejects configurations New (or the sweep engine) would refuse or
// silently mis-simulate: non-positive machine widths, more functional units
// than the scheduler's byte-count scoreboard holds, negative latencies,
// illegal cache or predictor-table geometry, and trace-cache sets/ways that
// break its power-of-two index masking. Every failure wraps ErrBadConfig
// and, for cache or predictor geometry, the underlying package's error. Defaults are applied first, so
// the zero Config validates.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.IssueWidth < 1:
		return fmt.Errorf("%w: issue width %d < 1", ErrBadConfig, d.IssueWidth)
	case d.WindowBlocks < 1:
		return fmt.Errorf("%w: window of %d blocks < 1", ErrBadConfig, d.WindowBlocks)
	case d.WindowOps < 1:
		return fmt.Errorf("%w: window of %d operations < 1", ErrBadConfig, d.WindowOps)
	case d.NumFUs < 1:
		return fmt.Errorf("%w: %d functional units < 1", ErrBadConfig, d.NumFUs)
	case d.NumFUs > 255:
		// The scheduler's FU scoreboard holds per-cycle byte counts.
		return fmt.Errorf("%w: %d functional units > 255", ErrBadConfig, d.NumFUs)
	case d.FrontEndDepth < 0:
		return fmt.Errorf("%w: negative front-end depth %d", ErrBadConfig, d.FrontEndDepth)
	case d.L2Latency < 0:
		return fmt.Errorf("%w: negative L2 latency %d", ErrBadConfig, d.L2Latency)
	case d.FaultSquashPenalty < 0:
		return fmt.Errorf("%w: negative fault squash penalty %d", ErrBadConfig, d.FaultSquashPenalty)
	}
	if err := d.ICache.Validate(); err != nil {
		return fmt.Errorf("%w: icache: %w", ErrBadConfig, err)
	}
	if err := d.DCache.Validate(); err != nil {
		return fmt.Errorf("%w: dcache: %w", ErrBadConfig, err)
	}
	if err := d.Predictor.Validate(); err != nil {
		return fmt.Errorf("%w: predictor: %w", ErrBadConfig, err)
	}
	if tc := d.TraceCache; tc.Enabled() {
		tc = tc.withDefaults()
		if tc.Sets <= 0 || tc.Sets&(tc.Sets-1) != 0 {
			return fmt.Errorf("%w: trace cache sets %d is not a positive power of two", ErrBadConfig, tc.Sets)
		}
		if tc.Ways < 1 {
			return fmt.Errorf("%w: trace cache ways %d < 1", ErrBadConfig, tc.Ways)
		}
	}
	if mb := d.MultiBlock; mb.Enabled() {
		mb = mb.withDefaults(d.IssueWidth)
		if mb.Banks < 1 {
			return fmt.Errorf("%w: multi-block banks %d < 1", ErrBadConfig, mb.Banks)
		}
		if mb.MaxOps < 1 {
			return fmt.Errorf("%w: multi-block fetch group of %d operations < 1", ErrBadConfig, mb.MaxOps)
		}
	}
	return nil
}

// Result summarizes a timing run.
type Result struct {
	Cycles int64
	Ops    int64 // retired operations
	Blocks int64 // retired blocks

	TrapMispredicts  int64 // wrong trap/branch direction (or wrong return target)
	FaultMispredicts int64 // right direction, wrong enlarged variant
	Misfetches       int64 // predictor had no target (BTB/RAS miss)

	ICache cache.Stats
	DCache cache.Stats
	Bpred  bpred.Stats
	Trace  TraceCacheStats
	Multi  MultiBlockStats

	FetchStallICache  int64 // cycles fetch stalled on icache misses
	FetchStallWindow  int64 // cycles fetch stalled on window capacity
	RecoveryStall     int64 // cycles fetch stalled on misprediction recovery
	FetchStallControl int64 // cycles fetch serialized on unresolved control (basicblocker)

	FusedPairs int64 // macro-op pairs fused at decode (fused backend)
}

// IPC returns retired operations per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Cycles)
}

// AvgBlockSize returns retired operations per retired block (Figure 5's
// metric: blocks squashed on mispredictions never reach this stream).
func (r *Result) AvgBlockSize() float64 {
	if r.Blocks == 0 {
		return 0
	}
	return float64(r.Ops) / float64(r.Blocks)
}

// Mispredicts returns all misprediction events.
func (r *Result) Mispredicts() int64 {
	return r.TrapMispredicts + r.FaultMispredicts + r.Misfetches
}

// Sim consumes a committed block stream and accumulates timing. A live Sim
// drives real icache, dcache and predictor models; a sweep lane (sw non-nil)
// reads those outcomes from a shared enrichment pass instead (sweep.go).
// Both schedule every block through the same kernel, laneSchedule, over
// predecoded operation tables.
type Sim struct {
	cfg    Config
	prog   *isa.Program
	policy backend.Policy
	pred   bpred.Predictor
	ic     *cache.Cache
	dc     *cache.Cache
	tc     *traceCache
	mb     *multiBlock

	// Scheduling state. lp is the predecoded block table, scr the FU ring,
	// register-ready tables and window ring. ldMiss is the load-outcome
	// stream laneSchedule consumes from ldOff: a live Sim refills it per
	// block from its dcache, a lane walks the shared enrichment stream.
	// noMiss is the all-hit stream for shadow (wrong-path) passes and
	// blocks without memory traffic.
	lp     []laneBlock
	scr    *laneScratch
	ldMiss []uint8
	ldOff  int
	ldBuf  []uint8 // live Sim: the current block's load outcomes
	noMiss []uint8

	cycle      int64 // current fetch cycle
	nextFetch  int64
	win        []windowEntry // ring buffer of in-flight blocks (scr.win)
	winHead    int
	winLen     int
	winOps     int // running in-flight operation count
	lastRetire int64
	res        Result

	// sw, when non-nil, marks this Sim as a sweep lane: per-config timing
	// state driven from shared precomputed cache/predictor outcomes instead
	// of live ic/dc/pred models (see sweep.go). Lanes never touch ic, dc or
	// pred.
	sw *sweepLane
}

type windowEntry struct {
	retire int64
	ops    int
}

// New builds a timing simulator for the program. The fetch policy —
// predictor family, serialization, fusion — follows the backend registered
// for the program's ISA kind.
func New(prog *isa.Program, cfg Config) (*Sim, error) {
	return newSim(prog, cfg, nil)
}

// newSim is New reusing pre's predecoded tables when they were built for
// prog at the configuration's issue width (nil or mismatched flattens
// fresh).
func newSim(prog *isa.Program, cfg Config, pre *Predecoded) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("uarch: icache: %w", err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("uarch: dcache: %w", err)
	}
	s := &Sim{
		cfg:    cfg,
		prog:   prog,
		policy: backend.PolicyFor(prog.Kind),
		ic:     ic,
		dc:     dc,
		lp:     pre.tables(prog, cfg.IssueWidth),
		scr:    newLaneScratch(cfg.WindowBlocks),
	}
	s.win = s.scr.win
	maxOps := 0
	for i := range s.lp {
		maxOps = max(maxOps, len(s.lp[i].ops))
	}
	s.ldBuf = make([]uint8, maxOps)
	s.noMiss = make([]uint8, maxOps)
	if !cfg.PerfectBP {
		switch s.policy.Predictor {
		case backend.PredBSA:
			s.pred = bpred.NewBSA(cfg.Predictor)
		case backend.PredNone:
			// Non-speculative front end: no predictor at all.
		default:
			s.pred = bpred.NewTwoLevel(cfg.Predictor)
		}
	}
	if cfg.TraceCache.Enabled() {
		s.tc = newTraceCache(cfg.TraceCache)
	}
	if cfg.MultiBlock.Enabled() {
		s.mb = newMultiBlock(cfg.MultiBlock, cfg.IssueWidth)
		// The alignment/merge network adds a pipeline stage (§3): deeper
		// front end, costlier mispredictions.
		s.cfg.FrontEndDepth++
	}
	return s, nil
}

// OnBlock consumes one committed block event. Pass it as the emulator's
// handler.
func (s *Sim) OnBlock(ev *emu.BlockEvent) error {
	b := ev.Block
	lb := &s.lp[b.ID]

	// Fetch: wait for window capacity, then access the icache.
	fetch := s.drainWindow(s.nextFetch, lb)
	// Trace cache: a block covered by an open trace window shares the
	// window's fetch cycle and bypasses the icache (the trace cache stores
	// the operations).
	covered := false
	if s.tc != nil {
		_, covered = s.tc.onFetch(b, fetch)
	}
	// Multi-block fetch: join the current fetch group when the predictor
	// and the icache banks allow it.
	if s.mb != nil && !covered {
		if c, joined := s.mb.onFetch(b, fetch, s.cfg.ICache.LineBytes); joined {
			fetch = c
			covered = true
			// Group members still access the icache (they come from it),
			// but any miss breaks the group.
			if misses := s.ic.AccessRange(b.Addr, b.Size); misses > 0 {
				stall := int64(s.cfg.L2Latency + (misses - 1))
				s.res.FetchStallICache += stall
				fetch = s.nextFetch + stall
				covered = false
				s.mb.breakGroup()
			}
		}
	}
	if !covered {
		if misses := s.ic.AccessRange(b.Addr, b.Size); misses > 0 {
			stall := int64(s.cfg.L2Latency + (misses - 1))
			s.res.FetchStallICache += stall
			fetch += stall
			if s.mb != nil {
				s.mb.breakGroup()
			}
		}
	}
	s.cycle = fetch
	s.scr.ring.advance(fetch)

	issue := fetch + int64(s.cfg.FrontEndDepth)

	// Schedule the block's operations through rename + dataflow + FUs,
	// after walking its memory operations through the dcache in op order.
	s.loadOutcomes(b, ev.MemAddrs)
	sched := s.laneSchedule(lb, issue, &s.scr.regs, true)
	s.retire(lb, sched.done)
	if s.tc != nil {
		s.tc.retire(b)
	}

	// Next-block prediction. A trace-covered block consumed no fetch slot,
	// so the next block may fetch in the same cycle.
	nextFetch := fetch + int64(lb.fetchCycles)
	if covered {
		nextFetch = fetch
	}
	if ev.Next != isa.NoBlock && s.pred != nil {
		predicted := s.pred.Predict(b)
		s.pred.Update(b, ev.Next, ev.Taken, ev.SuccIdx)
		if predicted != ev.Next {
			if s.tc != nil {
				s.tc.breakWindow()
			}
			if s.mb != nil {
				s.mb.breakGroup()
			}
			resolve, wasFault := s.recover(b, predicted, ev.Next, sched.term, issue)
			nextFetch = s.restartAfter(nextFetch, resolve, wasFault)
		}
	}
	// Non-speculative fetch (BasicBlocker): a transfer that only resolves at
	// execute serializes the front end — fetch waits for the terminator and
	// refills the pipeline, on every such block. PerfectBP idealizes the
	// whole front end and lifts the serialization too.
	if s.policy.SerializeControl && !s.cfg.PerfectBP && ev.Next != isa.NoBlock {
		if serializesFetch(b.Terminator()) {
			restart := sched.term + int64(s.cfg.FrontEndDepth)
			if restart > nextFetch {
				s.res.FetchStallControl += restart - nextFetch
				nextFetch = restart
			}
		}
	}
	s.nextFetch = nextFetch
	return nil
}

// loadOutcomes walks b's committed loads and stores through the dcache in
// operation order and points ldMiss at one byte per load (1 = miss), the
// stream laneSchedule charges L2 latency from. A memory op without a
// recorded address is treated as a hit and leaves the dcache untouched.
func (s *Sim) loadOutcomes(b *isa.Block, memAddrs []uint32) {
	s.ldOff = 0
	if len(memAddrs) == 0 {
		s.ldMiss = s.noMiss
		return
	}
	n, memIdx := 0, 0
	for i := range b.Ops {
		switch b.Ops[i].Opcode {
		case isa.LD:
			var m uint8
			if memIdx < len(memAddrs) {
				if !s.dc.Access(memAddrs[memIdx]) {
					m = 1
				}
				memIdx++
			}
			s.ldBuf[n] = m
			n++
		case isa.ST:
			if memIdx < len(memAddrs) {
				s.dc.Access(memAddrs[memIdx])
				memIdx++
			}
		}
	}
	s.ldMiss = s.ldBuf
}

// drainWindow pops retired blocks off the window ring and, while the window
// cannot take lb (block or operation capacity), stalls fetch until its
// oldest block retires. It returns the resulting fetch cycle.
func (s *Sim) drainWindow(fetch int64, lb *laneBlock) int64 {
	winOps := len(lb.ops) // a fused pair holds one window slot
	for s.winLen > 0 {
		head := s.win[s.winHead].retire
		if s.winLen >= s.cfg.WindowBlocks || s.winOps+winOps > s.cfg.WindowOps {
			if head > fetch {
				s.res.FetchStallWindow += head - fetch
				fetch = head
			}
			s.popWindow()
			continue
		}
		if head <= fetch {
			s.popWindow()
			continue
		}
		break
	}
	return fetch
}

// retire records a scheduled block's in-order retirement (one block per
// cycle) and enters it into the window. Retired counts stay architectural:
// a fused pair retires as two operations.
func (s *Sim) retire(lb *laneBlock, done int64) {
	retire := done + 1
	if retire <= s.lastRetire {
		retire = s.lastRetire + 1
	}
	s.lastRetire = retire
	s.pushWindow(windowEntry{retire: retire, ops: len(lb.ops)})
	s.res.Ops += int64(lb.numOps)
	s.res.Blocks++
	s.res.FusedPairs += int64(int(lb.numOps) - len(lb.ops))
}

// restartAfter applies a misprediction resolving at resolve: fetch restarts
// after the front-end refill (plus the block-squash penalty for a fault
// misprediction), and any delay past nextFetch is charged as recovery.
func (s *Sim) restartAfter(nextFetch, resolve int64, wasFault bool) int64 {
	restart := resolve + int64(s.cfg.FrontEndDepth)
	if wasFault {
		restart += int64(s.cfg.FaultSquashPenalty)
	}
	if restart > nextFetch {
		s.res.RecoveryStall += restart - nextFetch
		nextFetch = restart
	}
	return nextFetch
}

// popWindow retires the oldest in-flight block from the window ring.
func (s *Sim) popWindow() {
	s.winOps -= s.win[s.winHead].ops
	s.winHead++
	if s.winHead == len(s.win) {
		s.winHead = 0
	}
	s.winLen--
}

// pushWindow adds a newly fetched block to the window ring.
func (s *Sim) pushWindow(e windowEntry) {
	i := s.winHead + s.winLen
	if i >= len(s.win) {
		i -= len(s.win)
	}
	s.win[i] = e
	s.winLen++
	s.winOps += e.ops
}

// schedTimes reports when a scheduled block's pieces resolve.
type schedTimes struct {
	done       int64 // last operation completes
	term       int64 // terminator (trap/branch/return) resolves
	firstFault int64 // first fault operation resolves (0 if none)
}

// mpKind classifies a misprediction event. The classification depends only
// on the program structure and the predicted/actual block IDs — never on
// timing state — so the sweep engine computes it once per event and every
// lane replays the same kind (see sweep.go).
type mpKind uint8

const (
	mpNone mpKind = iota
	// mpMisfetch: the frontend had no target (BTB/RAS miss); fetch waits
	// for the transfer to execute.
	mpMisfetch
	// mpTrap: wrong direction or wrong indirect target; resolved when the
	// terminator executes. The wrong-path block still went through the
	// icache (pollution).
	mpTrap
	// mpFault: right direction, wrong enlarged variant; the wrongly fetched
	// block shadow-issues until its firing fault resolves.
	mpFault
)

// classifyMispredict determines how block b's misprediction of `predicted`
// (actual next block `actual`, known unequal) recovers.
func classifyMispredict(b *isa.Block, predicted, actual isa.BlockID) mpKind {
	if predicted == isa.NoBlock {
		return mpMisfetch
	}
	if t := b.Terminator(); t != nil && t.Opcode == isa.JR {
		// A mispredicted indirect jump resolves when the jump executes: an
		// ordinary misprediction, not a block squash (the jump-table target
		// is not an enlarged variant of anything).
		return mpTrap
	}
	idxP := b.SuccIndex(predicted)
	idxA := b.SuccIndex(actual)
	sameGroup := false
	if idxP >= 0 && idxA >= 0 {
		t := b.Terminator()
		hasTrap := t != nil && (t.Opcode == isa.TRAP || t.Opcode == isa.BR) &&
			b.TakenCount > 0 && b.TakenCount < len(b.Succs)
		if hasTrap {
			sameGroup = (idxP < b.TakenCount) == (idxA < b.TakenCount)
		} else {
			sameGroup = true // single variant group
		}
	}
	if !sameGroup {
		return mpTrap
	}
	return mpFault
}

// recover models misprediction recovery after block b predicted `predicted`
// but the machine should fetch `actual`. It classifies the event and returns
// the cycle at which the misprediction resolves, and whether it was a fault
// (variant) misprediction, which carries the block-squash penalty.
func (s *Sim) recover(b *isa.Block, predicted, actual isa.BlockID, trapResolve, issue int64) (int64, bool) {
	switch classifyMispredict(b, predicted, actual) {
	case mpMisfetch:
		s.res.Misfetches++
		return trapResolve, false
	case mpTrap:
		s.res.TrapMispredicts++
		if wb := s.prog.Block(predicted); wb != nil {
			s.ic.AccessRange(wb.Addr, wb.Size)
		}
		return trapResolve, false
	}

	// Fault misprediction: the wrong variant was fetched and issued; its
	// fault fires once the fault's condition operands resolve. The wrong
	// variant's fetch goes through the icache: a miss delays its issue and
	// therefore the fault's resolution — squashed blocks cannot even detect
	// the misprediction until they are fetched, one of the reasons fault
	// mispredictions cost more than ordinary branch mispredictions (paper
	// §5).
	s.res.FaultMispredicts++
	pb := s.prog.Block(predicted)
	if pb == nil {
		return trapResolve, true
	}
	shadowIssue := issue + 1
	if misses := s.ic.AccessRange(pb.Addr, pb.Size); misses > 0 {
		shadowIssue += int64(s.cfg.L2Latency + (misses - 1))
	}
	return s.shadowResolve(&s.lp[predicted], shadowIssue, trapResolve), true
}

// shadowResolve shadow-issues the wrongly predicted variant pb (a real
// static block) at shadowIssue, against a copy of the register-ready state
// and with every load assumed to hit, charging FU slots for the discarded
// work. It returns when the variant's first fault fires — the misprediction
// resolves — but never before the terminator of the block that predicted
// it.
func (s *Sim) shadowResolve(pb *laneBlock, shadowIssue, trapResolve int64) int64 {
	scr := s.scr
	copy(scr.shadow[:laneRegsUsed], scr.regs[:laneRegsUsed])
	shadow := s.laneSchedule(pb, shadowIssue, &scr.shadow, false)
	faultResolve := shadow.firstFault
	if faultResolve == 0 {
		// Defensive: a variant without faults cannot detect the
		// misprediction itself; fall back to its completion.
		faultResolve = shadow.done
	}
	return max(faultResolve, trapResolve)
}

// Window reports the in-flight occupancy — blocks and operations the window
// currently holds — after the last consumed event. internal/check uses it to
// audit the machine's capacity invariants (at most WindowBlocks blocks and
// WindowOps operations in flight) during a simulation.
func (s *Sim) Window() (blocks, ops int) { return s.winLen, s.winOps }

// ResolvedConfig returns the simulator's configuration with defaults applied.
func (s *Sim) ResolvedConfig() Config { return s.cfg }

// Finish returns the accumulated result. Call after the emulator completes.
func (s *Sim) Finish() *Result {
	s.res.Cycles = s.lastRetire
	s.res.ICache = s.ic.Stats()
	s.res.DCache = s.dc.Stats()
	if s.pred != nil {
		s.res.Bpred = s.pred.Stats()
	}
	if s.tc != nil {
		s.res.Trace = s.tc.stats
	}
	if s.mb != nil {
		s.res.Multi = s.mb.stats
	}
	return &s.res
}

// RunProgram is the convenience entry point: functionally emulate prog,
// feeding the committed stream through a fresh timing simulator.
func RunProgram(prog *isa.Program, cfg Config, emuCfg emu.Config) (*Result, *emu.Result, error) {
	sim, err := New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	er, err := emu.New(prog, emuCfg).Run(sim.OnBlock)
	if err != nil {
		return nil, nil, err
	}
	return sim.Finish(), er, nil
}
