package pipeline

import (
	"context"
	"errors"
	"testing"

	"elfetch/internal/backend"
	"elfetch/internal/btb"
	"elfetch/internal/cache"
	"elfetch/internal/core"
	"elfetch/internal/workload"
)

// ffSnapshot is every counter a run reports, plus the clock: two runs of
// the same cell are exact copies of each other only if these agree.
type ffSnapshot struct {
	Now          uint64
	Stats        Stats
	BTB          btb.Stats
	FAQHighWater int

	// ELF controller.
	Periods, CoupledInsts, ResyncSwitches, ResyncPops, Overshoot uint64
	PeriodHist                                                   [12]uint64
	Divergences                                                  [4]uint64

	// Backend.
	BECommitted, Forwarded, WrongPathExec, LoadViolations, Deferred uint64

	// Caches (L0I, L1I, L1D, L2, L3): accesses and misses; MSHR queueing.
	Caches      [5][2]uint64
	DMSHRQueued uint64

	// DCF generator, when present.
	Blocks, SeqBlocks, Bubbles, PredecodeHits, PredecodeMiss uint64
}

func snapshot(m *Machine) ffSnapshot {
	e, be, h := m.ELF(), m.Backend(), m.Hierarchy()
	s := ffSnapshot{
		Now: m.Now(), Stats: m.Stats, BTB: *m.BTBStats(), FAQHighWater: m.FAQHighWater(),
		Periods: e.Periods, CoupledInsts: e.CoupledInstsTotal, ResyncSwitches: e.ResyncSwitches,
		ResyncPops: e.ResyncPops, Overshoot: e.OvershootSquashes,
		PeriodHist: e.PeriodHist, Divergences: e.Divergences,
		BECommitted: be.Committed, Forwarded: be.ForwardedLoads, WrongPathExec: be.WrongPathExec,
		LoadViolations: be.LoadViolations, Deferred: be.DeferredFlushes,
		DMSHRQueued: h.DMSHRQueued,
	}
	for i, c := range []*cache.Cache{h.L0I, h.L1I, h.L1D, h.L2, h.L3} {
		s.Caches[i] = [2]uint64{c.Accesses, c.Misses}
	}
	if d := m.dcf; d != nil {
		s.Blocks, s.SeqBlocks, s.Bubbles = d.Blocks, d.SeqBlocks, d.BubbleCount
		s.PredecodeHits, s.PredecodeMiss = d.PredecodeHits, d.PredecodeMiss
	}
	return s
}

// stepTo is the unskipped reference: Cycle on every cycle until target
// instructions have committed. It returns how many of the stepped cycles
// were dead (deadCycles only reads the machine).
func stepTo(m *Machine, target uint64) (dead uint64) {
	for m.Stats.Committed < target {
		if m.deadCycles(^uint64(0)) > 0 {
			dead++
		}
		m.Cycle()
	}
	return dead
}

// TestFastForwardExact holds RunContext's dead-cycle skip to the unskipped
// cycle loop: after a warmup, ResetStats and a measured window, every
// reported counter and the clock must match exactly. The memory-bound
// cells must also be mostly dead, or the comparison would prove nothing.
// A last subtest cancels a memory-bound run in the middle.
func TestFastForwardExact(t *testing.T) {
	const warmup, measure = 10_000, 30_000
	base := DefaultConfig()
	configs := map[string]Config{
		"DCF":   base,
		"NoDCF": base.NoDCF(),
		"U-ELF": base.WithVariant(core.UELF),
		"L-ELF": base.WithVariant(core.LELF),
	}
	type cell struct {
		workload, name string
		cfg            Config
		memoryBound    bool
	}
	var cells []cell
	for _, w := range []string{"605.mcf_s", "server2_subtest_3", "657.xz_s", "641.leela_s"} {
		for name, cfg := range configs {
			cells = append(cells, cell{w, name, cfg, w != "641.leela_s"})
		}
	}
	boomerang := base
	boomerang.Boomerang, boomerang.FAQPrefetch = true, true
	cells = append(cells, cell{"605.mcf_s", "Boomerang+FAQPrefetch", boomerang, true})

	for _, c := range cells {
		c := c
		t.Run(c.workload+"/"+c.name, func(t *testing.T) {
			t.Parallel()
			e, err := workload.Lookup(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			a := MustNew(c.cfg, e.Program())
			if _, err := a.RunContext(ctx, warmup); err != nil {
				t.Fatal(err)
			}
			a.ResetStats()
			if _, err := a.RunContext(ctx, measure); err != nil {
				t.Fatal(err)
			}

			b := MustNew(c.cfg, e.Program())
			stepTo(b, warmup)
			b.ResetStats()
			dead := stepTo(b, b.Stats.Committed+measure)

			if sa, sb := snapshot(a), snapshot(b); sa != sb {
				t.Errorf("fast-forwarded run differs from the stepped one:\n skip %+v\n step %+v", sa, sb)
			}
			frac := float64(dead) / float64(b.Stats.Cycles)
			t.Logf("%.1f%% of measured cycles dead", 100*frac)
			if c.memoryBound && frac < 0.5 {
				t.Errorf("only %.1f%% of a memory-bound cell's cycles are dead; the skip is not exercised", 100*frac)
			}
		})
	}
	t.Run("cancel/605.mcf_s", testFastForwardCancel)
}

// cycleCtx is a context that reports cancellation once the machine's
// clock reaches at, so a test can cancel at a known simulated cycle.
type cycleCtx struct {
	context.Context
	m  *Machine
	at uint64
}

func (c cycleCtx) Err() error {
	if c.m.Now() >= c.at {
		return context.Canceled
	}
	return nil
}

// testFastForwardCancel cancels a memory-bound run in the middle: skipping
// dead cycles may delay the context poll by at most one backend wheel
// revolution.
func testFastForwardCancel(t *testing.T) {
	e, err := workload.Lookup("605.mcf_s")
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(DefaultConfig(), e.Program())
	m.Run(10_000)
	ctx := cycleCtx{Context: context.Background(), m: m, at: m.Now() + 50_000}
	_, err = m.RunContext(ctx, 1_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if late := m.Now() - ctx.at; late > abortPollCycles+backend.WheelSlots {
		t.Errorf("returned %d cycles after the cancel, bound %d", late, abortPollCycles+backend.WheelSlots)
	}
}
