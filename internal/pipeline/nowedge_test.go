package pipeline

import (
	"strings"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/program"
	"elfetch/internal/workload"
)

// chaoticProgram mirrors TestChaoticBranchCausesFlushes.
func chaoticProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder(0x10000)
	f := b.Func("main")
	loop := f.Block("loop")
	loop.Nop(4)
	loop.CondTo(program.Bernoulli{P: 0.5, Salt: 1}, "other")
	loop.Nop(2)
	loop.JumpTo("loop")
	other := f.Block("other")
	other.Nop(2)
	other.JumpTo("loop")
	p, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wedgeBound is the no-commit window, in cycles, past which a machine
// counts as wedged.
const wedgeBound = 200_000

// Wedge reports replay the run with a tracer attached tailLead cycles
// before the last commit, holding up to tailEvents records, and show the
// newest tailRows of them.
const (
	tailLead   = 1_000
	tailEvents = 512
	tailRows   = 48
)

// requireNoWedge runs prog under cfg until target instructions commit and
// fails if any wedgeBound-cycle window passes without a commit.
func requireNoWedge(t *testing.T, cfg Config, prog *program.Program, target uint64) {
	t.Helper()
	m := MustNew(cfg, prog)
	last := uint64(0)
	stuckSince := uint64(0)
	for i := 0; i < 40_000_000; i++ {
		m.Cycle()
		if m.Stats.Committed != last {
			last = m.Stats.Committed
			stuckSince = m.now
		}
		if m.now-stuckSince > wedgeBound {
			t.Fatalf("wedged at cycle %d after %d commits; pipeview tail:\n%s",
				m.now, last, wedgeTail(t, cfg, prog, stuckSince, m.now))
		}
		if m.Stats.Committed >= target {
			return
		}
	}
	t.Fatalf("too slow: %d commits", m.Stats.Committed)
}

// wedgeTail replays the deterministic run up to the wedge with a small
// tracer attached shortly before the last commit, so the report shows
// the instructions in flight when commit stopped without every passing
// run paying for a tracer.
func wedgeTail(t *testing.T, cfg Config, prog *program.Program, lastCommit, wedgedAt uint64) string {
	t.Helper()
	m := MustNew(cfg, prog)
	for m.now+tailLead < lastCommit {
		m.Cycle()
	}
	tr := NewTracer(tailEvents)
	m.AttachTracer(tr)
	for m.now < wedgedAt {
		m.Cycle()
	}
	var tail strings.Builder
	if err := tr.WritePipeview(&tail, tailRows); err != nil {
		t.Fatal(err)
	}
	return tail.String()
}

// The three gates below keep their historical TestDebug* names so their
// ids stay stable for suite bookkeeping; each fails unless every
// configuration keeps committing.

// TestDebugWedgeHunt runs the tiny loop and a coin-flip branch loop under
// every configuration.
func TestDebugWedgeHunt(t *testing.T) {
	for name, cfg := range allConfigs() {
		name, cfg := name, cfg
		t.Run("tiny/"+name, func(t *testing.T) {
			requireNoWedge(t, cfg, tinyLoop(t), 50_000)
		})
		t.Run("chaotic/"+name, func(t *testing.T) {
			requireNoWedge(t, cfg, chaoticProgram(t), 50_000)
		})
	}
}

// TestDebugLeelaUELF runs 641.leela_s under U-ELF for 120k instructions.
func TestDebugLeelaUELF(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	requireNoWedge(t, DefaultConfig().WithVariant(core.UELF), e.Program(), 120_000)
}

// TestDebugFigureSetWedgeHunt runs every figure workload under every
// configuration for 200k instructions.
func TestDebugFigureSetWedgeHunt(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, name := range workload.FigureSet() {
		e, err := workload.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for cname, cfg := range allConfigs() {
			name, cname, cfg, e := name, cname, cfg, e
			t.Run(name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				requireNoWedge(t, cfg, e.Program(), 200_000)
			})
		}
	}
}
