package perf

import (
	"fmt"
	"io"
)

// MaxRegression is the blocking throughput-regression threshold: a new
// record whose geomean cycles/sec falls more than 5% below the baseline,
// beyond the wider of the two records' noise bands, fails the comparison
// (same-host records only).
const MaxRegression = 0.05

// allocSlack absorbs measurement noise in allocs-per-cycle (a stray
// runtime allocation — GC bookkeeping, a timer — across millions of
// cycles). The steady-state target is 0; anything past the slack is a
// real leak back into the hot loop.
const allocSlack = 0.001

// Report is the outcome of comparing two trajectory points.
type Report struct {
	// Failures are blocking regressions: IPC drift (deterministic),
	// allocs/cycle growth (machine-independent), or a same-host
	// throughput drop beyond MaxRegression plus the noise band.
	Failures []string
	// Warnings are advisory: cross-host wall-clock changes, suite shape
	// changes.
	Warnings []string
	// Summary lines always print (throughput and alloc movement).
	Summary []string
}

// OK reports a comparison with no blocking failure.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func (r *Report) warnf(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// Compare checks new against the old baseline.
func Compare(old, new *Record) *Report {
	r := &Report{}

	// 1. Per-cell IPC: the simulator is deterministic, so any drift is a
	// behavioural change, regardless of host.
	oldCells := make(map[string]Cell, len(old.Cells))
	key := func(c Cell) string { return c.Workload + "/" + c.Config }
	for _, c := range old.Cells {
		oldCells[key(c)] = c
	}
	matched := 0
	sameSuite := old.Warmup == new.Warmup && old.Measure == new.Measure
	if !sameSuite {
		r.warnf("suite sizes differ (warmup %d→%d, measure %d→%d): skipping IPC equivalence",
			old.Warmup, new.Warmup, old.Measure, new.Measure)
	}
	for _, c := range new.Cells {
		o, ok := oldCells[key(c)]
		if !ok {
			r.warnf("cell %s is new (not in baseline)", key(c))
			continue
		}
		matched++
		if sameSuite && (c.IPC != o.IPC || c.Cycles != o.Cycles) {
			r.failf("IPC drift in %s: %.6f (%d cycles) vs baseline %.6f (%d cycles) — simulated behaviour changed",
				key(c), c.IPC, c.Cycles, o.IPC, o.Cycles)
		}
	}
	if matched < len(old.Cells) {
		r.warnf("%d baseline cell(s) missing from the new record", len(old.Cells)-matched)
	}

	// 2. Allocation discipline: allocs/cycle is machine-independent, so
	// growth always blocks.
	if new.AllocsPerCycle > old.AllocsPerCycle+allocSlack {
		r.failf("allocs/cycle grew: %.6f vs baseline %.6f — the hot loop is allocating again",
			new.AllocsPerCycle, old.AllocsPerCycle)
	}
	r.Summary = append(r.Summary, fmt.Sprintf("allocs/cycle %.6f → %.6f, bytes/cycle %.3f → %.3f",
		old.AllocsPerCycle, new.AllocsPerCycle, old.BytesPerCycle, new.BytesPerCycle))

	// 3. Throughput: wall clock only means something on the same host.
	if old.CyclesPerSec > 0 {
		ratio := new.CyclesPerSec / old.CyclesPerSec
		line := fmt.Sprintf("geomean throughput %.0f → %.0f cycles/sec (%+.1f%%), %.0f → %.0f insts/sec",
			old.CyclesPerSec, new.CyclesPerSec, (ratio-1)*100, old.InstsPerSec, new.InstsPerSec)
		r.Summary = append(r.Summary, line)
		if old.Host == new.Host {
			if gate := MaxRegression + max(old.Noise, new.Noise); ratio < 1-gate {
				r.failf("throughput regressed %.1f%% on %s (threshold %.0f%% + %.1f%% noise)",
					(1-ratio)*100, new.Host.Name, MaxRegression*100, (gate-MaxRegression)*100)
			}
		} else {
			r.warnf("records are from different hosts (%s/%d vs %s/%d): wall-clock change is advisory only",
				old.Host.Name, old.Host.CPUs, new.Host.Name, new.Host.CPUs)
		}
	}
	return r
}

// Write renders the report.
func (r *Report) Write(w io.Writer) {
	for _, s := range r.Summary {
		fmt.Fprintln(w, s)
	}
	for _, s := range r.Warnings {
		fmt.Fprintln(w, "warning:", s)
	}
	for _, s := range r.Failures {
		fmt.Fprintln(w, "FAIL:", s)
	}
	if r.OK() {
		fmt.Fprintln(w, "benchdiff: ok")
	}
}
