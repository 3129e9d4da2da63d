package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"bsisa/internal/backend"
	"bsisa/internal/svc"
	"bsisa/internal/uarch"
	"bsisa/internal/workload"
)

// program is one MiniC program the load generator submits as source text.
type program struct {
	ID      int
	Profile workload.Profile // generator profile, seed already perturbed
	ISA     string
	Source  string
}

// item is one request of a schedule. Due is its offset from the start of
// an open-loop phase (unused in closed loops).
type item struct {
	Due      time.Duration
	Prog     int // index into serveInputs.programs
	Kind     string
	Req      svc.SimRequest
	Distinct int // index into serveInputs.distinct
}

// Request kinds in a mix.
const (
	kindSingle = "single"
	kindGrid   = "grid"
	kindBurst  = "burst"
)

// serveInputs is everything a serve-* run sends, generated from the seed
// before the server starts.
type serveInputs struct {
	programs []program
	warm     []item // setup: one request per program (serve-hot only)
	open     []item // open-loop phase (serve-hot only)
	closed   []item // closed-loop phase
	distinct []svc.SimRequest
	index    map[string]int
}

// Request shapes. The single configs are the paper machine at one of the
// scaled icache sizes; a grid is the 16-point history x icache question.
var (
	singleICache = []int{8 * 1024, 16 * 1024, 32 * 1024}
	gridHistory  = []int{4, 8, 12, 16}
	gridICache   = []int{0, 8 * 1024, 16 * 1024, 32 * 1024}
)

// The serve-hot mixes, one block each, shuffled per block. The open loop's
// independent users mostly ask single configs, with an occasional burst of
// identical requests that the coalescer can fold and an occasional grid on
// a backend the sweep lanes cover. The closed loop's sweeping callers ask
// grids on every backend, including the two that fall back to per-config
// replay. Open-loop grids come from one engine class so the open-loop tail
// (about the twelfth-slowest request) lands inside that class; with both
// classes mixed it fell on their boundary.
var (
	openMix = []string{
		kindSingle, kindSingle, kindSingle, kindSingle,
		kindSingle, kindSingle, kindSingle, kindSingle, kindGrid, kindBurst,
	}
	closedMix = []string{
		kindSingle, kindSingle, kindSingle, kindSingle, kindSingle, kindSingle, kindSingle,
		kindGrid, kindGrid, kindGrid,
	}
)

// mix64 is SplitMix64: it derives independent generator seeds from the run
// seed, so a different run seed changes every generated program.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(mix64(uint64(seed)), mix64(stream)))
}

// genProgram builds the source of profile p at scale with a generator seed
// derived from (seed, salt).
func genProgram(p workload.Profile, seed int64, salt uint64, isaName string, id int) (program, error) {
	p.Seed = int64(mix64(uint64(seed)^mix64(salt)) >> 1)
	src, err := workload.Source(p)
	if err != nil {
		return program{}, fmt.Errorf("generate %s: %w", p.Name, err)
	}
	return program{ID: id, Profile: p, ISA: isaName, Source: src}, nil
}

func (in *serveInputs) add(it item) item {
	it.Req.Version = svc.SchemaVersion
	it.Req.Program = svc.ProgramSpec{Source: in.programs[it.Prog].Source, ISA: in.programs[it.Prog].ISA}
	key, _ := json.Marshal(it.Req) // ID is still empty: the key is the question asked
	d, ok := in.index[string(key)]
	if !ok {
		d = len(in.distinct)
		in.index[string(key)] = d
		in.distinct = append(in.distinct, it.Req)
	}
	it.Distinct = d
	return it
}

func single(prog, icache int) item {
	return item{Prog: prog, Kind: kindSingle, Req: svc.SimRequest{
		Config: &svc.ConfigSpec{ICache: &svc.CacheSpec{SizeBytes: icache, Ways: 4}},
	}}
}

func grid(prog int) item {
	return item{Prog: prog, Kind: kindGrid, Req: svc.SimRequest{
		Sweep: &svc.SweepSpec{ICacheSizes: gridICache, HistoryBits: gridHistory},
	}}
}

// hotInputs generates the serve-hot inputs: the 8 Table-2 profiles at scale
// with seed-perturbed generator seeds, times every registered backend, and
// a mix over them: nOpen open-loop requests (bursts of `burst` identical
// requests share one due time) at `rate` per second, then nClosed
// closed-loop requests.
func hotInputs(seed int64, scale, rate float64, nOpen, nClosed, burst int) (*serveInputs, error) {
	in := &serveInputs{index: map[string]int{}}
	for i, p := range workload.Profiles(scale) {
		base, err := genProgram(p, seed, uint64(i), "", 0)
		if err != nil {
			return nil, err
		}
		for _, be := range backend.All() {
			base.ID, base.ISA = len(in.programs), be.Name()
			in.programs = append(in.programs, base)
		}
	}
	// Warm-up asks one question per program: a grid where the answer runs
	// the sweep lanes (so the predecoded tables are cached and stored too),
	// a single config elsewhere.
	var all, swept []int
	for p, prog := range in.programs {
		all = append(all, p)
		if be, _ := backend.Get(prog.ISA); uarch.CanSweepKind(be.Kind()) {
			swept = append(swept, p)
			in.warm = append(in.warm, in.add(grid(p)))
		} else {
			in.warm = append(in.warm, in.add(single(p, singleICache[0])))
		}
	}
	rng := newRand(seed, 1)
	// Each phase's kinds of request draw programs from their own seeded
	// rotation, so every program is asked every kind of question equally
	// often and a run's work does not hinge on which programs happened to
	// get grids. Kinds follow shuffled blocks of each phase's mix.
	rotations := map[string][]int{}
	nextProg := func(key string, pool []int) int {
		if len(rotations[key]) == 0 {
			for _, i := range rng.Perm(len(pool)) {
				rotations[key] = append(rotations[key], pool[i])
			}
		}
		p := rotations[key][0]
		rotations[key] = rotations[key][1:]
		return p
	}
	var kindQ []string
	nextKind := func(mix []string) string {
		if len(kindQ) == 0 {
			kindQ = append([]string(nil), mix...)
			rng.Shuffle(len(kindQ), func(i, j int) { kindQ[i], kindQ[j] = kindQ[j], kindQ[i] })
		}
		k := kindQ[0]
		kindQ = kindQ[1:]
		return k
	}
	request := func(phase, kind string, pool []int) item {
		p := nextProg(phase+"/"+kind, pool)
		if kind == kindGrid {
			return in.add(grid(p))
		}
		it := in.add(single(p, singleICache[rng.IntN(len(singleICache))]))
		it.Kind = kind
		return it
	}
	var due time.Duration
	for len(in.open) < nOpen {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		kind := nextKind(openMix)
		pool := all
		if kind == kindGrid {
			pool = swept
		}
		it := request("open", kind, pool)
		it.Due = due
		n := 1
		if kind == kindBurst {
			n = burst
		}
		for k := 0; k < n && len(in.open) < nOpen; k++ {
			in.open = append(in.open, it)
		}
	}
	kindQ = nil
	for len(in.closed) < nClosed {
		in.closed = append(in.closed, request("closed", nextKind(closedMix), all))
	}
	return in, nil
}

// coldWeight is how often a profile appears per serve-cold rotation. The
// mid-size programs (perl, vortex) appear twice so the median request lands
// inside their latency cluster: with every profile once, the median fell on
// the gap between the small kernels and them, and its run-to-run spread
// reached 0.22.
var coldWeight = map[string]int{"perl": 2, "vortex": 2}

// coldInputs generates at least n never-seen programs, rotating over the
// profiles (weighted by coldWeight) and the backends, each asked one
// single-config question. n is rounded up to whole rotations, so every run
// has the same mix.
func coldInputs(seed int64, scale float64, n int) (*serveInputs, error) {
	in := &serveInputs{index: map[string]int{}}
	var profiles []workload.Profile
	for _, p := range workload.Profiles(scale) {
		for k := 0; k < max(1, coldWeight[p.Name]); k++ {
			profiles = append(profiles, p)
		}
	}
	backends := backend.All()
	rot := len(profiles) * len(backends)
	n = (n + rot - 1) / rot * rot
	rng := newRand(seed, 2)
	pOff, bOff := rng.IntN(len(profiles)), rng.IntN(len(backends))
	for i := 0; i < n; i++ {
		p := profiles[(pOff+i)%len(profiles)]
		be := backends[(bOff+i/len(profiles))%len(backends)]
		prog, err := genProgram(p, seed, uint64(1000+i), be.Name(), i)
		if err != nil {
			return nil, err
		}
		in.programs = append(in.programs, prog)
		in.closed = append(in.closed, in.add(single(i, singleICache[len(singleICache)-1])))
	}
	return in, nil
}
