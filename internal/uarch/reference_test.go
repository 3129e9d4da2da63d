package uarch

import (
	"fmt"
	"testing"

	"bsisa/internal/backend"
	"bsisa/internal/bpred"
	"bsisa/internal/cache"
	"bsisa/internal/compile"
	"bsisa/internal/core"
	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/testgen"
	"bsisa/internal/workload"
)

// refSim is a deliberately naive reference implementation of the timing
// model, kept as the oracle the production kernel is checked against. It
// walks the block's isa.Ops one at a time, counts functional-unit claims in
// a map keyed by cycle with int64 counts, recomputes macro-op fusion pairs
// for every block, keeps the window as a plain slice and drives the dcache
// inline while scheduling. It shares only the fetch-side models (caches,
// predictors, trace cache, multi-block grouping) and the static helpers
// (classifyMispredict, serializesFetch, fusePairs) with the package, so it
// checks Sim's and Sweep's scheduling independently of the lane kernel.
type refSim struct {
	cfg    Config
	prog   *isa.Program
	policy backend.Policy
	pred   bpred.Predictor
	ic, dc *cache.Cache
	tc     *traceCache
	mb     *multiBlock

	nextFetch  int64
	lastRetire int64
	regReady   [isa.NumRegs]int64
	fu         map[int64]int64 // busy functional units per cycle
	fuFloor    int64           // no claim below this cycle remains live
	win        []windowEntry   // in-flight blocks, oldest first
	res        Result
}

func newRefSim(t *testing.T, prog *isa.Program, cfg Config) *refSim {
	t.Helper()
	cfg = cfg.withDefaults()
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		t.Fatal(err)
	}
	r := &refSim{cfg: cfg, prog: prog, policy: backend.PolicyFor(prog.Kind), ic: ic, dc: dc, fu: map[int64]int64{}}
	if !cfg.PerfectBP {
		switch r.policy.Predictor {
		case backend.PredBSA:
			r.pred = bpred.NewBSA(cfg.Predictor)
		case backend.PredNone:
		default:
			r.pred = bpred.NewTwoLevel(cfg.Predictor)
		}
	}
	if cfg.TraceCache.Enabled() {
		r.tc = newTraceCache(cfg.TraceCache)
	}
	if cfg.MultiBlock.Enabled() {
		r.mb = newMultiBlock(cfg.MultiBlock, cfg.IssueWidth)
		r.cfg.FrontEndDepth++
	}
	return r
}

// refRun replays a trace through a fresh reference simulator.
func refRun(t *testing.T, tr *emu.Trace, cfg Config) *Result {
	t.Helper()
	r := newRefSim(t, tr.Program(), cfg)
	if err := tr.Replay(r.onBlock); err != nil {
		t.Fatal(err)
	}
	r.res.Cycles = r.lastRetire
	r.res.ICache = r.ic.Stats()
	r.res.DCache = r.dc.Stats()
	if r.pred != nil {
		r.res.Bpred = r.pred.Stats()
	}
	if r.tc != nil {
		r.res.Trace = r.tc.stats
	}
	if r.mb != nil {
		r.res.Multi = r.mb.stats
	}
	return &r.res
}

func (r *refSim) fusion(b *isa.Block) []int {
	if !r.policy.FuseMacroOps {
		return nil
	}
	return fusePairs(b.Ops)
}

func (r *refSim) winOps() int {
	n := 0
	for _, e := range r.win {
		n += e.ops
	}
	return n
}

// allocFU claims the first cycle at or after ready with a free unit.
func (r *refSim) allocFU(ready int64) int64 {
	for r.fu[ready] >= int64(r.cfg.NumFUs) {
		ready++
	}
	r.fu[ready]++
	return ready
}

func (r *refSim) icacheStall(b *isa.Block) int64 {
	if misses := r.ic.AccessRange(b.Addr, b.Size); misses > 0 {
		return int64(r.cfg.L2Latency + misses - 1)
	}
	return 0
}

func (r *refSim) onBlock(ev *emu.BlockEvent) error {
	b := ev.Block
	pairs := r.fusion(b)
	winOps := len(b.Ops) - len(pairs)

	fetch := r.nextFetch
	for len(r.win) > 0 {
		head := r.win[0].retire
		if len(r.win) >= r.cfg.WindowBlocks || r.winOps()+winOps > r.cfg.WindowOps {
			if head > fetch {
				r.res.FetchStallWindow += head - fetch
				fetch = head
			}
			r.win = r.win[1:]
			continue
		}
		if head <= fetch {
			r.win = r.win[1:]
			continue
		}
		break
	}
	covered := false
	if r.tc != nil {
		_, covered = r.tc.onFetch(b, fetch)
	}
	if r.mb != nil && !covered {
		if c, joined := r.mb.onFetch(b, fetch, r.cfg.ICache.LineBytes); joined {
			fetch, covered = c, true
			if stall := r.icacheStall(b); stall > 0 {
				r.res.FetchStallICache += stall
				fetch = r.nextFetch + stall
				covered = false
				r.mb.breakGroup()
			}
		}
	}
	if !covered {
		if stall := r.icacheStall(b); stall > 0 {
			r.res.FetchStallICache += stall
			fetch += stall
			if r.mb != nil {
				r.mb.breakGroup()
			}
		}
	}
	for c := r.fuFloor; c < fetch; c++ {
		delete(r.fu, c)
	}
	r.fuFloor = max(r.fuFloor, fetch)

	issue := fetch + int64(r.cfg.FrontEndDepth)
	sched := r.schedule(b, ev.MemAddrs, issue, &r.regReady, true)

	retire := max(sched.done+1, r.lastRetire+1)
	r.lastRetire = retire
	r.win = append(r.win, windowEntry{retire: retire, ops: winOps})
	r.res.Ops += int64(len(b.Ops))
	r.res.Blocks++
	r.res.FusedPairs += int64(len(pairs))
	if r.tc != nil {
		r.tc.retire(b)
	}

	n := (len(b.Ops) + r.cfg.IssueWidth - 1) / r.cfg.IssueWidth
	nextFetch := fetch + int64(max(n, 1))
	if covered {
		nextFetch = fetch
	}
	if ev.Next != isa.NoBlock && r.pred != nil {
		predicted := r.pred.Predict(b)
		r.pred.Update(b, ev.Next, ev.Taken, ev.SuccIdx)
		if predicted != ev.Next {
			if r.tc != nil {
				r.tc.breakWindow()
			}
			if r.mb != nil {
				r.mb.breakGroup()
			}
			resolve, wasFault := r.recover(b, predicted, ev.Next, sched.term, issue)
			restart := resolve + int64(r.cfg.FrontEndDepth)
			if wasFault {
				restart += int64(r.cfg.FaultSquashPenalty)
			}
			if restart > nextFetch {
				r.res.RecoveryStall += restart - nextFetch
				nextFetch = restart
			}
		}
	}
	if r.policy.SerializeControl && !r.cfg.PerfectBP && ev.Next != isa.NoBlock && serializesFetch(b.Terminator()) {
		if restart := sched.term + int64(r.cfg.FrontEndDepth); restart > nextFetch {
			r.res.FetchStallControl += restart - nextFetch
			nextFetch = restart
		}
	}
	r.nextFetch = nextFetch
	return nil
}

// schedule issues b's operations (fused pairs as one macro-op) through
// rename, dataflow and the FU pool. A commit pass updates the dcache and
// charges L2 latency to missing loads; a shadow pass assumes hits.
func (r *refSim) schedule(b *isa.Block, memAddrs []uint32, issue int64, regReady *[isa.NumRegs]int64, commit bool) schedTimes {
	pairs := r.fusion(b)
	memIdx := 0
	st := schedTimes{done: issue, term: issue + 1}
	for i := 0; i < len(b.Ops); i++ {
		group := b.Ops[i : i+1]
		if len(pairs) > 0 && pairs[0] == i {
			group = b.Ops[i : i+2]
			pairs = pairs[1:]
			i++
		}
		ready := issue
		var lat int64
		for k := range group {
			op := &group[k]
			reads, nr := op.ReadRegs()
			for j := 0; j < nr; j++ {
				reg := reads[j]
				if k == 1 {
					// The fused datapath forwards the pair's internal
					// dependency.
					if rd1, _ := group[0].Writes(); reg == rd1 {
						continue
					}
				}
				if reg != isa.RegZero {
					ready = max(ready, regReady[reg])
				}
			}
			lat = max(lat, int64(op.Opcode.Latency()))
		}
		start := r.allocFU(ready)
		for k := range group {
			switch group[k].Opcode {
			case isa.LD:
				if commit && memIdx < len(memAddrs) {
					if !r.dc.Access(memAddrs[memIdx]) {
						lat += int64(r.cfg.L2Latency)
					}
					memIdx++
				}
			case isa.ST:
				if commit && memIdx < len(memAddrs) {
					r.dc.Access(memAddrs[memIdx])
					memIdx++
				}
			}
		}
		done := start + lat
		for k := range group {
			if rd, ok := group[k].Writes(); ok && rd != isa.RegZero {
				regReady[rd] = done
			}
		}
		last := group[len(group)-1].Opcode
		if last == isa.CALL {
			regReady[isa.RegLR] = done
		}
		if last.IsBlockEnd() {
			st.term = done
		}
		if last == isa.FAULT && st.firstFault == 0 {
			st.firstFault = done
		}
		st.done = max(st.done, done)
	}
	return st
}

func (r *refSim) recover(b *isa.Block, predicted, actual isa.BlockID, trapResolve, issue int64) (int64, bool) {
	switch classifyMispredict(b, predicted, actual) {
	case mpMisfetch:
		r.res.Misfetches++
		return trapResolve, false
	case mpTrap:
		r.res.TrapMispredicts++
		if wb := r.prog.Block(predicted); wb != nil {
			r.ic.AccessRange(wb.Addr, wb.Size)
		}
		return trapResolve, false
	}
	r.res.FaultMispredicts++
	pb := r.prog.Block(predicted)
	if pb == nil {
		return trapResolve, true
	}
	shadowRegs := r.regReady
	shadow := r.schedule(pb, nil, issue+1+r.icacheStall(pb), &shadowRegs, false)
	resolve := shadow.firstFault
	if resolve == 0 {
		resolve = shadow.done
	}
	return max(resolve, trapResolve), true
}

// refKinds is every registered backend's program kind.
var refKinds = []isa.Kind{isa.Conventional, isa.BlockStructured, isa.BasicBlocker, isa.MacroFused}

// refSource is one program source the reference tests compile per backend.
type refSource struct{ name, src string }

// refSources mixes randomized testgen programs (odd shapes, short traces)
// with small-scale workloads (thousands of events, real window pressure,
// fault mispredictions and fused pairs).
func refSources(t *testing.T, seed0 int64) []refSource {
	t.Helper()
	seeds, workloads := 5, []string{"compress", "ijpeg", "li"}
	if testing.Short() {
		seeds, workloads = 2, workloads[:2]
	}
	var out []refSource
	for s := seed0; s < seed0+int64(seeds); s++ {
		out = append(out, refSource{fmt.Sprintf("seed-%d", s), testgen.Program(s)})
	}
	for _, name := range workloads {
		p, ok := workload.ProfileByName(name, 0.01)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		src, err := workload.Source(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, refSource{name, src})
	}
	return out
}

// refTrace compiles src for kind, runs the backend's shaping pass and
// records the committed stream.
func refTrace(t *testing.T, s refSource, kind isa.Kind) *emu.Trace {
	t.Helper()
	prog, err := compile.Compile(s.src, s.name, compile.DefaultOptions(kind))
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	be, ok := backend.ForKind(kind)
	if !ok {
		t.Fatalf("no backend for %v", kind)
	}
	if _, err := be.Shape(prog, core.Params{}); err != nil {
		t.Fatalf("%s %v: shape: %v", s.name, kind, err)
	}
	tr, err := emu.Record(prog, emu.Config{MaxOps: 80_000_000})
	if err != nil {
		t.Fatalf("%s %v: record: %v", s.name, kind, err)
	}
	return tr
}

// refConfigs extends the figure grid with machines narrow enough that window
// capacity and FU contention bind, and with the fetch rivals on non-default
// geometry.
func refConfigs() []Config {
	small := cache.Config{SizeBytes: 1024, Ways: 2}
	return append(figureConfigs(),
		Config{ICache: small, IssueWidth: 4, WindowBlocks: 4, WindowOps: 24, NumFUs: 2, FrontEndDepth: 2},
		Config{ICache: small, NumFUs: 1, L2Latency: 11, FaultSquashPenalty: 9},
		Config{ICache: small, TraceCache: TraceCacheConfig{Sets: 16, Ways: 2}, PerfectBP: true},
		Config{ICache: small, IssueWidth: 8, NumFUs: 3, MultiBlock: MultiBlockConfig{Blocks: 3, Banks: 2}},
	)
}

// TestSimMatchesReference: over randomized programs and small workloads for
// all four backends, Sim (through ReplayTrace and SimulateMany) must match
// the naive reference scheduler field for field, trace-cache and
// multi-block configs included.
func TestSimMatchesReference(t *testing.T) {
	cfgs := refConfigs()
	for _, s := range refSources(t, 5100) {
		for _, kind := range refKinds {
			tr := refTrace(t, s, kind)
			many, err := SimulateMany(tr, cfgs, 2)
			if err != nil {
				t.Fatalf("%s %v: %v", s.name, kind, err)
			}
			for ci, cfg := range cfgs {
				want := refRun(t, tr, cfg)
				got, err := ReplayTrace(tr, cfg)
				if err != nil {
					t.Fatalf("%s %v cfg %d: %v", s.name, kind, ci, err)
				}
				if *got != *want {
					t.Errorf("%s %v cfg %d: Sim differs from the reference\nsim: %+v\nref: %+v", s.name, kind, ci, *got, *want)
				}
				if *many[ci] != *want {
					t.Errorf("%s %v cfg %d: SimulateMany differs from the reference", s.name, kind, ci)
				}
			}
		}
	}
}

// TestSweepMatchesReference: on the sweepable backends, every lane of a
// cross-axis grid, a perfect-prediction icache grid and a grid of one must
// match the reference scheduler.
func TestSweepMatchesReference(t *testing.T) {
	grids := [][]Config{crossGrid(), sweepGrid(true), crossGrid()[4:5]}
	for _, s := range refSources(t, 5200) {
		for _, kind := range refKinds {
			if !CanSweepKind(kind) {
				continue
			}
			tr := refTrace(t, s, kind)
			for gi, cfgs := range grids {
				got, err := Sweep(tr, cfgs, 2)
				if err != nil {
					t.Fatalf("%s %v grid %d: %v", s.name, kind, gi, err)
				}
				for ci, cfg := range cfgs {
					if want := refRun(t, tr, cfg); *got[ci] != *want {
						t.Errorf("%s %v grid %d cfg %d: Sweep differs from the reference\nsweep: %+v\nref:   %+v", s.name, kind, gi, ci, *got[ci], *want)
					}
				}
			}
		}
	}
}
