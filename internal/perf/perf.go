// Package perf is the bench-trajectory harness (DESIGN.md §17): it runs a
// fixed simulation suite, writes one BENCH_<n>.json trajectory point per
// run, and compares two points for regressions. The suite's IPC numbers
// are deterministic (they must be bit-equal between runs on any host);
// the wall-clock numbers are host-dependent and only gate when both
// records come from the same host.
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/program"
	"elfetch/internal/workload"
)

// Schema identifies the record layout for future readers.
const Schema = 1

// Host fingerprints the machine a record was measured on. Wall-clock
// comparisons are only meaningful when two records share it.
type Host struct {
	Name      string `json:"name"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	GoArch    string `json:"go_arch"`
	// CPUModel is the first "model name" of /proc/cpuinfo (empty where
	// there is none) and GOMAXPROCS the scheduler width the suite ran
	// with. Both are omitted when empty, so records written before they
	// existed still read.
	CPUModel   string `json:"cpu_model,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// cpuModel returns the host's CPU model name from /proc/cpuinfo, or ""
// when the file or the field is missing.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// repeats is how many times Suite.Run measures every cell. The repeats
// are interleaved — each round measures every cell once — so a slow
// stretch on the host lands on all cells alike rather than on one.
const repeats = 5

// Cell is one (workload, config) measurement.
type Cell struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	IPC      float64 `json:"ipc"` // deterministic: must match exactly across hosts
	Cycles   uint64  `json:"cycles"`
	// CyclesPerSec is the best of the repeats rounds (minimum wall
	// clock); host-dependent.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// Spread is the cell's (max-min)/min wall clock across the rounds.
	Spread float64 `json:"spread,omitempty"`
}

// Record is one bench-trajectory point.
type Record struct {
	Schema    int    `json:"schema"`
	CreatedAt string `json:"created_at"`
	Host      Host   `json:"host"`
	Warmup    uint64 `json:"warmup"`
	Measure   uint64 `json:"measure"`

	// Geomeans over the suite's cells.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	InstsPerSec  float64 `json:"insts_per_sec"`
	// Noise is the record's throughput noise band: 1 - min/max of the
	// per-round geomean cycles/sec. Compare widens its same-host gate by
	// it.
	Noise float64 `json:"noise,omitempty"`

	// Allocation discipline, machine-independent: heap allocations (and
	// bytes) per simulated cycle across the whole measured region. The
	// steady-state target is 0 (DESIGN.md §17).
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`

	Cells []Cell `json:"cells"`
}

// Suite is the workload × config matrix a record measures.
type Suite struct {
	Workloads []string
	Configs   []pipeline.Config
	Warmup    uint64
	Measure   uint64
}

// DefaultSuite is the Figure 6 bench set (bench_test.go's figureSubset)
// under the four decode paths of the cycle loop. Fixed sizes: trajectory
// points are only comparable when the suite is identical.
func DefaultSuite() Suite {
	base := pipeline.DefaultConfig()
	return Suite{
		Workloads: []string{
			"641.leela_s", "620.omnetpp_s", "server1_subtest_1", "433.milc", "401.bzip2",
		},
		Configs: []pipeline.Config{
			base,
			base.NoDCF(),
			base.WithVariant(core.UELF),
			base.WithVariant(core.LELF),
		},
		Warmup:  30_000,
		Measure: 120_000,
	}
}

// Run measures the suite and returns its trajectory point: repeats
// interleaved rounds over every cell, keeping each cell's best round and
// the spread. Machine construction and warmup are excluded from each
// cell's wall clock; the allocation counters cover only the measured
// regions, so they report the steady-state loop, not setup.
func (s Suite) Run(ctx context.Context) (*Record, error) {
	host, _ := os.Hostname()
	rec := &Record{
		Schema:    Schema,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Host: Host{
			Name:       host,
			CPUs:       runtime.NumCPU(),
			GoVersion:  runtime.Version(),
			GoArch:     runtime.GOARCH,
			CPUModel:   cpuModel(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Warmup:  s.Warmup,
		Measure: s.Measure,
	}
	// Cell i simulates progs[i] under cfgs[i].
	var progs []*program.Program
	var cfgs []pipeline.Config
	for _, name := range s.Workloads {
		e, err := workload.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, cfg := range s.Configs {
			progs = append(progs, e.Program())
			cfgs = append(cfgs, cfg)
			rec.Cells = append(rec.Cells, Cell{Workload: name, Config: cfg.Name()})
		}
	}
	// walls[r][i] is cell i's measured wall clock in round r.
	walls := make([][]time.Duration, repeats)
	var totalCycles, totalMallocs, totalBytes uint64
	var ms0, ms1 runtime.MemStats
	for r := range walls {
		walls[r] = make([]time.Duration, len(rec.Cells))
		for i := range rec.Cells {
			c := &rec.Cells[i]
			m, err := pipeline.New(cfgs[i], progs[i])
			if err != nil {
				return nil, err
			}
			if _, err := m.RunContext(ctx, s.Warmup); err != nil {
				return nil, fmt.Errorf("perf: %s/%s warmup: %w", c.Workload, c.Config, err)
			}
			m.ResetStats()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			st, err := m.RunContext(ctx, s.Measure)
			walls[r][i] = time.Since(start)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("perf: %s/%s: %w", c.Workload, c.Config, err)
			}
			totalMallocs += ms1.Mallocs - ms0.Mallocs
			totalBytes += ms1.TotalAlloc - ms0.TotalAlloc
			totalCycles += st.Cycles
			if r > 0 && st.Cycles != c.Cycles {
				return nil, fmt.Errorf("perf: %s/%s is nondeterministic: %d cycles, then %d",
					c.Workload, c.Config, c.Cycles, st.Cycles)
			}
			c.Cycles = st.Cycles
			c.IPC = float64(st.Committed) / float64(st.Cycles)
		}
	}
	for i := range rec.Cells {
		c := &rec.Cells[i]
		lo, hi := walls[0][i], walls[0][i]
		for _, w := range walls[1:] {
			lo, hi = min(lo, w[i]), max(hi, w[i])
		}
		c.CyclesPerSec = float64(c.Cycles) / lo.Seconds()
		c.Spread = float64(hi-lo) / float64(lo)
	}
	if totalCycles > 0 {
		rec.AllocsPerCycle = float64(totalMallocs) / float64(totalCycles)
		rec.BytesPerCycle = float64(totalBytes) / float64(totalCycles)
	}
	n := len(rec.Cells)
	rec.CyclesPerSec = geomean(n, func(i int) float64 { return rec.Cells[i].CyclesPerSec })
	rec.InstsPerSec = geomean(n, func(i int) float64 { return rec.Cells[i].IPC * rec.Cells[i].CyclesPerSec })
	lo, hi := math.Inf(1), 0.0
	for _, w := range walls {
		g := geomean(n, func(i int) float64 { return float64(rec.Cells[i].Cycles) / w[i].Seconds() })
		lo, hi = math.Min(lo, g), math.Max(hi, g)
	}
	if hi > 0 {
		rec.Noise = 1 - lo/hi
	}
	return rec, nil
}

// geomean is the geometric mean of f over 0..n-1 (0 when n is 0 or any
// value is non-positive).
func geomean(n int, f func(int) float64) float64 {
	if n == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		v := f(i)
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(n))
}

// WriteRecord writes r as indented JSON.
func WriteRecord(path string, r *Record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadRecord loads a trajectory point.
func ReadRecord(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: %s: schema %d, want %d", path, r.Schema, Schema)
	}
	return &r, nil
}
