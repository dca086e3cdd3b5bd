package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	osexec "os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/workload"
)

// grid is a Figure-6-shaped workload: every proxy under every front end,
// run cold (no result cache, no store) on the in-process pool, which is
// `elfbench -fig 6`'s local path.
type grid struct {
	name    string
	proxies []string
	warmup  uint64
	measure uint64
}

var grids = []grid{
	// Front-end-bound, cache-resident proxies (2-50% backpressure
	// cycles, CPI 0.2-1.3): host time is active per-cycle pipeline work.
	{"grid-frontend", []string{"641.leela_s", "620.omnetpp_s", "server1_subtest_1", "433.milc", "437.leslie3d"}, 50_000, 200_000},
	// Memory-bound proxies (87-94% backpressure cycles, CPI 3-8): most
	// simulated cycles are stalls.
	{"grid-memory", []string{"605.mcf_s", "server2_subtest_3", "657.xz_s"}, 50_000, 200_000},
}

// setupReps is how many times each grid process, and the traced run,
// time the set-up (see generatePrograms).
const setupReps = 7

func (g grid) cells() []eval.Cell {
	var out []eval.Cell
	for _, p := range g.proxies {
		for _, cfg := range gridConfigs() {
			out = append(out, eval.Cell{Workload: p, Config: cfg, Warmup: g.warmup, Measure: g.measure})
		}
	}
	return out
}

// cellTimer is the grid's CellRunner: it makes the same eval.RunOne call
// the in-process pool makes for a cell, and records how long it took.
type cellTimer struct {
	entries map[string]*workload.Entry
	mu      sync.Mutex
	lat     map[string]float64 // by cellID, seconds
}

func (t *cellTimer) Run(ctx context.Context, c eval.Cell) (eval.Result, error) {
	e, ok := t.entries[c.Workload]
	if !ok {
		return eval.Result{}, fmt.Errorf("unknown proxy %q", c.Workload)
	}
	start := time.Now()
	r, err := eval.RunOne(ctx, e, c.Config, c.Params())
	d := time.Since(start).Seconds()
	t.mu.Lock()
	t.lat[cellID(c)] = d
	t.mu.Unlock()
	return r, err
}

// gridChild is what one grid process reports: its set-up, the grid and
// every cell's outcome.
type gridChild struct {
	SetupS float64     `json:"setupS"` // median of setupReps set-ups
	GridS  float64     `json:"gridS"`
	Steal  float64     `json:"steal"` // share of CPU time stolen meanwhile
	HWMKB  int64       `json:"hwmKB"`
	Cells  []childCell `json:"cells"`
	Err    string      `json:"err,omitempty"`
}

type childCell struct {
	ID        string  `json:"id"`
	Committed uint64  `json:"committed"`
	Cycles    uint64  `json:"cycles"`
	LatS      float64 `json:"latS"`
}

// runGridChild is the body of a grid process: in a fresh process it
// times setupReps generations of every proxy's program, then runs the
// grid once, cold, through eval.MatrixResults on the in-process pool
// (Parallel = nproc), in an order drawn from seed. It prints a
// gridChild as JSON.
func runGridChild(ctx context.Context, g grid, seed int64) int {
	var out gridChild
	clock := readCPUClock()
	var es []*workload.Entry
	byName := map[string]*workload.Entry{}
	for _, name := range g.proxies {
		e, err := workload.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		es = append(es, e)
		byName[name] = e
	}
	out.SetupS = median(generatePrograms(nil, es))

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	cfgs := gridConfigs()
	rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	timer := &cellTimer{entries: byName, lat: map[string]float64{}}
	p := eval.Params{Warmup: g.warmup, Measure: g.measure, Parallel: runtime.NumCPU(), Runner: timer}
	start := time.Now()
	rs, err := eval.MatrixResults(ctx, es, cfgs, p)
	out.GridS = time.Since(start).Seconds()
	if err != nil {
		out.Err = err.Error()
	}
	for _, cr := range rs {
		id := cellID(cr.Cell)
		out.Cells = append(out.Cells, childCell{id, cr.Result.Committed, cr.Result.Cycles, timer.lat[id]})
	}
	out.Steal = clock.stolenSince()
	out.HWMKB = vmKB("self", "VmHWM")
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// gridRun holds one grid workload's state across its phases.
type gridRun struct {
	g       grid
	env     *env
	rep     *report
	entries []*workload.Entry
	rng     *rand.Rand
}

// gridSamples collects what the grid processes of one run measured.
type gridSamples struct {
	setups, walls, lat, hwmMB []float64
	steal                     []float64 // share of CPU time stolen during each grid process
	// p99s holds each grid's own p99 cell latency. A grid has 12 or 20
	// cells, so that is its slowest cell; the median over grids is a
	// steadier tail than the p99 of the pooled cells, of which only one
	// or two lie beyond it.
	p99s []float64
}

func runGrid(ctx context.Context, g grid, env *env, rep *report) error {
	r := &gridRun{g: g, env: env, rep: rep, rng: rand.New(rand.NewSource(env.seed))}
	env.begin()
	if !env.trace {
		var gs gridSamples
		for i := 0; i < 3 || time.Now().Before(env.deadline()); i++ {
			if err := r.childGrid(ctx, &gs); err != nil {
				return err
			}
		}
		rep.set("setup_s", "s", median(gs.setups))
		rep.set("grid_s", "s", median(gs.walls))
		rep.set("cell_p50_ms", "ms", 1e3*quantile(gs.lat, 0.50))
		rep.set("cell_p99_ms", "ms", 1e3*median(gs.p99s))
		// On a grid this mirrors grid_s; it is here because every
		// workload prints every end-to-end metric.
		rep.set("cells_per_s", "1/s", float64(len(g.cells()))/median(gs.walls))
		rep.set("peak_rss_mb", "MB", median(gs.hwmMB))
		rep.note("grids (s): %.3f", gs.walls)
		rep.note("share of CPU time stolen by the hypervisor during each grid: %.3f", gs.steal)
		rep.note("set-ups, median of %d each (ms): %.2f", setupReps, scale(gs.setups, 1e3))
		rep.note("VmHWM (MB): %.1f", gs.hwmMB)
		rep.note("samples: %d grid processes, %d cells", len(gs.walls), len(gs.lat))
		return nil
	}

	// Traced: grid processes and traced in-process grids alternate, so
	// the overhead compares like with like on the same host state.
	for _, name := range g.proxies {
		e, err := workload.Lookup(name)
		if err != nil {
			return err
		}
		r.entries = append(r.entries, e)
	}
	tr := newTracer()
	generatePrograms(tr, r.entries)
	acc := &pipeAcc{stages: map[string]int64{}}
	var plain gridSamples
	var traced []float64
	for i := 0; i < 4 || time.Now().Before(env.deadline()); i++ {
		if i%2 == 0 {
			if err := r.childGrid(ctx, &plain); err != nil {
				return err
			}
			continue
		}
		wall, err := replayCells(ctx, env, rep, tr, "bench.grid", r.shuffled(), acc)
		if err != nil {
			return err
		}
		traced = append(traced, wall)
	}
	spans := tr.log.Snapshot()
	rep.set("workload.program_ms", "ms", 1e3*sum(durations(spans, "workload.program"))/setupReps)
	acc.report(rep, spans, float64(len(traced)))
	rep.set("trace.overhead_frac", "1", median(traced)/median(plain.walls)-1)
	return finishTrace(env, rep, spans)
}

// childGrid runs one grid in a fresh process of this binary and checks
// every cell it reports.
func (r *gridRun) childGrid(ctx context.Context, gs *gridSamples) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := osexec.CommandContext(ctx, exe, "-grid-child", "-workload", r.g.name,
		"-seed", strconv.FormatInt(r.rng.Int63(), 10))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("grid process: %w", err)
	}
	var out gridChild
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return fmt.Errorf("grid process output: %w", err)
	}
	n := len(r.g.cells())
	r.rep.attempted += n
	if out.Err != "" {
		r.rep.failN(n-len(out.Cells), errors.New(out.Err))
	}
	var lat []float64
	for _, c := range out.Cells {
		if err := r.env.ref.check(c.ID, c.Committed, c.Cycles); err != nil {
			r.rep.fail(err)
		}
		lat = append(lat, c.LatS)
	}
	gs.lat = append(gs.lat, lat...)
	gs.p99s = append(gs.p99s, quantile(lat, 0.99))
	gs.setups = append(gs.setups, out.SetupS)
	gs.walls = append(gs.walls, out.GridS)
	gs.steal = append(gs.steal, out.Steal)
	gs.hwmMB = append(gs.hwmMB, float64(out.HWMKB)/1024)
	return nil
}

// generatePrograms times setupReps generations of every entry's
// program and returns each repetition's time in seconds. The first
// repetition builds the entries themselves; the later ones build fresh
// copies of them, which is the same work. A nil tracer records nothing.
func generatePrograms(tr *tracer, entries []*workload.Entry) []float64 {
	var out []float64
	for i := 0; i < setupReps; i++ {
		root := tr.start(nil, "bench.setup")
		start := time.Now()
		for _, e := range entries {
			if i > 0 {
				e = &workload.Entry{Name: e.Name, Suite: e.Suite, Profile: e.Profile, Seed: e.Seed}
			}
			sp := tr.start(root, "workload.program")
			e.Program()
			finish(sp)
		}
		out = append(out, time.Since(start).Seconds())
		finish(root)
	}
	return out
}

// shuffled returns the grid's cells in a seed-determined order.
func (r *gridRun) shuffled() []eval.Cell {
	cells := r.g.cells()
	r.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// pipeAcc accumulates what the traced replays observe of the pipeline.
type pipeAcc struct {
	mu                    sync.Mutex
	cycles, committed     uint64 // warmup + measure
	measCycles, measInsts uint64
	backpressure          uint64
	watchdog              uint64
	mallocs, allocBytes   uint64
	queueWaits            []float64 // seconds
	stages                map[string]int64
}

// replayCells runs cells as eval.RunOne does, one span per call into
// each layer, each cell submitted as a job to a sched.Scheduler with one
// worker per CPU (no cache: every cell runs). A CPU profile taken
// meanwhile feeds the stage shares. It returns the wall time.
//
// The scheduler's spans cover Submit only: its queue wait is waiting,
// not work, so it is reported as sched.queue_wait_ms rather than charged
// as self time.
func replayCells(ctx context.Context, env *env, rep *report, tr *tracer, rootName string, cells []eval.Cell, acc *pipeAcc) (float64, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.start(nil, rootName)
	start := time.Now()

	s := sched.New(sched.Config{Workers: env.nproc, QueueDepth: len(cells)})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for _, c := range cells {
		sub := tr.start(root, "sched.submit")
		j, err := s.Submit("cell "+cellID(c), "", func(ctx context.Context) (any, error) {
			return replayCell(ctx, tr, root, c, acc)
		})
		finish(sub)
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := j.Wait(ctx)
			if err == nil && st.State == sched.Done {
				o := st.Result.(outcome)
				err = env.ref.check(cellID(c), o.Committed, o.Cycles)
			} else if err == nil {
				err = fmt.Errorf("cell %s: %s", cellID(c), st.Error)
			}
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
			if st.Started != nil {
				acc.mu.Lock()
				acc.queueWaits = append(acc.queueWaits, st.Started.Sub(st.Submitted).Seconds())
				acc.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	shutdownErr := s.Shutdown(ctx)
	wall := time.Since(start).Seconds()
	finish(root)
	runtime.ReadMemStats(&after)
	pprof.StopCPUProfile()

	rep.attempted += len(cells)
	for _, err := range errs {
		rep.fail(err)
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if shutdownErr != nil {
		return 0, shutdownErr
	}
	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.mallocs += after.Mallocs - before.Mallocs
	acc.allocBytes += after.TotalAlloc - before.TotalAlloc
	return wall, stageSamples(prof.Bytes(), acc.stages)
}

// replayCell is eval.RunOne taken apart at its calls into the workload
// and pipeline layers; the "eval.cell" span around it stands for
// eval.RunCell.
func replayCell(ctx context.Context, tr *tracer, parent *obs.Span, c eval.Cell, acc *pipeAcc) (outcome, error) {
	cell := tr.start(parent, "eval.cell")
	defer finish(cell)
	sp := tr.start(cell, "workload.lookup")
	e, err := workload.Lookup(c.Workload)
	finish(sp)
	if err != nil {
		return outcome{}, err
	}
	sp = tr.start(cell, "workload.program")
	prog := e.Program()
	finish(sp)
	sp = tr.start(cell, "pipeline.new")
	m, err := pipeline.New(c.Config, prog)
	finish(sp)
	if err != nil {
		return outcome{}, err
	}
	var warm pipeline.Stats
	if c.Warmup > 0 {
		sp = tr.start(cell, "pipeline.warmup")
		st, err := m.RunContext(ctx, c.Warmup)
		finish(sp)
		if err != nil {
			return outcome{}, err
		}
		warm = *st
		sp = tr.start(cell, "pipeline.reset_stats")
		m.ResetStats()
		finish(sp)
	}
	sp = tr.start(cell, "pipeline.measure")
	st, err := m.RunContext(ctx, c.Measure)
	finish(sp)
	if err != nil {
		return outcome{}, err
	}
	acc.mu.Lock()
	acc.cycles += warm.Cycles + st.Cycles
	acc.committed += warm.Committed + st.Committed
	acc.measCycles += st.Cycles
	acc.measInsts += st.Committed
	acc.backpressure += st.CycBackpressure
	acc.watchdog += warm.WatchdogRecoveries + st.WatchdogRecoveries
	acc.mu.Unlock()
	return outcome{st.Committed, st.Cycles}, nil
}

// report sets the pipeline, eval and sched per-layer metrics from the
// traced replays; perRun divides the totals that grow with run count.
func (a *pipeAcc) report(rep *report, spans []obs.Span, perRun float64) {
	warm, meas := sum(durations(spans, "pipeline.warmup")), sum(durations(spans, "pipeline.measure"))
	simSecs := warm + meas
	rep.set("pipeline.new_ms", "ms", 1e3*quantile(durations(spans, "pipeline.new"), 0.50))
	rep.set("pipeline.warmup_s", "s", warm/perRun)
	rep.set("pipeline.measure_s", "s", meas/perRun)
	rep.set("pipeline.ns_per_cycle", "ns", 1e9*simSecs/float64(a.cycles))
	rep.set("pipeline.ns_per_inst", "ns", 1e9*simSecs/float64(a.committed))
	rep.set("pipeline.kips", "kinst/s", float64(a.committed)/simSecs/1e3)
	rep.set("pipeline.cpi", "1", float64(a.measCycles)/float64(a.measInsts))
	rep.set("pipeline.backpressure_frac", "1", float64(a.backpressure)/float64(a.measCycles))
	rep.set("pipeline.allocs_per_cycle", "1", float64(a.mallocs)/float64(a.cycles))
	rep.set("pipeline.bytes_per_cycle", "B", float64(a.allocBytes)/float64(a.cycles))
	rep.set("pipeline.watchdog_recoveries", "count", float64(a.watchdog)/perRun)
	for st, share := range stageShares(a.stages) {
		rep.set("pipeline.stage."+st+".share", "1", share)
	}
	runcell := durations(spans, "eval.cell")
	rep.set("eval.runcell_ms_p50", "ms", 1e3*quantile(runcell, 0.50))
	rep.set("eval.runcell_ms_p99", "ms", 1e3*quantile(runcell, 0.99))
	rep.set("sched.queue_wait_ms_p50", "ms", 1e3*quantile(a.queueWaits, 0.50))
	rep.set("sched.queue_wait_ms_p99", "ms", 1e3*quantile(a.queueWaits, 0.99))
}
