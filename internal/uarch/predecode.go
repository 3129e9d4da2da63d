package uarch

import "bsisa/internal/isa"

// Predecoded is a reusable predecode of a program's blocks: the flattened
// per-block operation tables (macro-op pairs already fused under a fusing
// backend) that the timing kernel schedules, for sweep lanes and Sims alike.
// The table depends only on the program and the (defaulted) issue width —
// never on the trace or any cache/predictor knob — so a service can build it
// once per program and hand it to every sweep over that program. A
// Predecoded is immutable after construction and safe for concurrent use by
// any number of sweeps and Sims.
type Predecoded struct {
	prog       *isa.Program
	issueWidth int
	lp         []laneBlock
}

// EffectiveIssueWidth resolves the issue width a configuration will actually
// run with (the paper's 16-wide fetch when the knob is zero) — the value
// Predecode keys its tables on.
func (c Config) EffectiveIssueWidth() int {
	return c.withDefaults().IssueWidth
}

// Predecode flattens prog's blocks once for the timing kernel.
// issueWidth <= 0 takes the paper's default, matching Config.withDefaults.
func Predecode(prog *isa.Program, issueWidth int) *Predecoded {
	if issueWidth <= 0 {
		issueWidth = Config{}.EffectiveIssueWidth()
	}
	return &Predecoded{prog: prog, issueWidth: issueWidth, lp: flattenSweepProgram(prog, issueWidth)}
}

// tables returns the predecoded block table for prog at issueWidth, reusing
// p's when it matches (a nil or mismatched p flattens fresh). The table is
// immutable — callers copy per-width metadata rather than ever writing into
// it.
func (p *Predecoded) tables(prog *isa.Program, issueWidth int) []laneBlock {
	if p != nil && p.prog == prog && p.issueWidth == issueWidth {
		return p.lp
	}
	return flattenSweepProgram(prog, issueWidth)
}
