// Command perfbench is elfetch's repository benchmark: the host time of
// figure grids and the latency of serving cells through elfd, end to end
// with tracing off, and layer by layer in a separate traced run. See
// README.md for the workloads, the metrics and how to read them.
//
//	bash perfbench/run.sh --workload grid-frontend --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every simulated result is
// checked against reference.json; a mismatch, a failed request or a
// request that exhausted its retries counts as failed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"elfetch/internal/obs"
)

// endToEnd are the metrics a --trace 0 run prints, on every workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"grid_s", "s"},
	{"cell_p50_ms", "ms"},
	{"cell_p99_ms", "ms"},
	{"cells_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run prints. A layer a workload
// does not reach reads 0 there.
var perLayer = func() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"workload.program_ms", "ms"},
		{"pipeline.new_ms", "ms"},
		{"pipeline.warmup_s", "s"},
		{"pipeline.measure_s", "s"},
		{"pipeline.ns_per_cycle", "ns"},
		{"pipeline.ns_per_inst", "ns"},
		{"pipeline.kips", "kinst/s"},
		{"pipeline.cpi", "1"},
		{"pipeline.backpressure_frac", "1"},
		{"pipeline.allocs_per_cycle", "1"},
		{"pipeline.bytes_per_cycle", "B"},
		{"pipeline.watchdog_recoveries", "count"},
	}
	for _, st := range stages {
		out = append(out, struct{ name, unit string }{"pipeline.stage." + st + ".share", "1"})
	}
	out = append(out, []struct{ name, unit string }{
		{"eval.runcell_ms_p50", "ms"},
		{"eval.runcell_ms_p99", "ms"},
		{"sched.queue_wait_ms_p50", "ms"},
		{"sched.queue_wait_ms_p99", "ms"},
		{"sched.cache_hit_ratio", "1"},
		{"exec.local.hit_us_p50", "us"},
		{"exec.local.hit_us_p99", "us"},
		{"exec.fleet.overhead_us_p50", "us"},
		{"exec.fleet.retried", "count"},
		{"exec.fleet.failed", "count"},
		{"store.disk.get_us_p50", "us"},
		{"store.disk.get_us_p99", "us"},
		{"store.disk.put_us_p50", "us"},
		{"store.disk.put_us_p99", "us"},
		{"store.disk.open_ms", "ms"},
		{"store.disk.hit_ratio", "1"},
		{"elfd.post_us_p50", "us"},
		{"elfd.post_us_p99", "us"},
		{"elfd.ready_ms", "ms"},
		{"elfd.rss_kb_per_kreq", "KB"},
		{"elfd.requests_2xx", "count"},
	}...)
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{"self_s." + l, "s"})
	}
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{"spans." + l, "count"})
	}
	return append(out, []struct{ name, unit string }{
		{"trace.e2e_s", "s"},
		{"trace.overhead_frac", "1"},
	}...)
}()

// workloads maps --workload names to their runners.
var workloads = map[string]func(context.Context, *env, *report) error{
	"grid-frontend": func(ctx context.Context, e *env, r *report) error { return runGrid(ctx, grids[0], e, r) },
	"grid-memory":   func(ctx context.Context, e *env, r *report) error { return runGrid(ctx, grids[1], e, r) },
	"serve-mixed":   runServe,
}

// env is one run's settings.
type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	elfdBin  string
	work     string // scratch root for this run's files
	nproc    int
	ref      reference
	start    time.Time
}

// begin starts the measurement clock (after set-up).
func (e *env) begin() { e.start = time.Now() }

// deadline is when the measurement phase should stop starting work.
func (e *env) deadline() time.Time { return e.start.Add(time.Duration(e.seconds) * time.Second) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, outcome counts and notes.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []string
	notes     []string
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.note("%s is not finite (%v); reported as 0", name, v)
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

// fail counts one failed operation.
func (r *report) fail(err error) { r.failN(1, err) }

// failN counts n failed operations sharing one cause.
func (r *report) failN(n int, err error) {
	r.failed += n
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// hostInfo fingerprints the machine a result was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// vmKB reads one "Vm*" field (in kB) of /proc/<pid>/status; pid "self"
// is this process. It returns 0 when the field cannot be read.
func vmKB(pid, field string) int64 {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// finishTrace attributes the traced run's time to layers, writes the
// spans as a Chrome trace under the run's scratch root, and prints the
// check that the layer self times add up to the traced end-to-end time.
func finishTrace(env *env, rep *report, spans []obs.Span) error {
	a := attribute(spans)
	selfSum := 0.0
	for _, l := range layers {
		rep.set("self_s."+l, "s", a.Self[l])
		rep.set("spans."+l, "count", float64(a.Spans[l]))
		selfSum += a.Self[l]
	}
	rep.set("trace.e2e_s", "s", a.E2E)
	rep.note("layer self times sum to %.6f s; traced end-to-end time %.6f s", selfSum, a.E2E)
	path := filepath.Join(env.work, fmt.Sprintf("trace-%s-seed%d.json", env.workload, env.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans, false); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.note("Chrome trace of %d spans: %s", len(spans), path)
	return nil
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: grid-frontend, grid-memory or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	elfdBin := flag.String("elfd", "", "elfd binary (serve-mixed)")
	work := flag.String("work", ".bench_build", "directory for scratch files")
	record := flag.String("record-reference", "", "simulate every referenced cell and write the reference to this file, then exit")
	gridChild := flag.Bool("grid-child", false, "run one grid of --workload in this process and print it as JSON (the benchmark's own grid processes)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *record != "" {
		if err := recordReference(ctx, *record, runtime.NumCPU()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *gridChild {
		for _, g := range grids {
			if g.name == *name {
				return runGridChild(ctx, g, *seed)
			}
		}
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload grid-frontend|grid-memory|serve-mixed, --seconds >= 1 and --trace 0|1")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workDir, err := filepath.Abs(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		elfdBin: *elfdBin, work: workDir, nproc: runtime.NumCPU(), ref: ref, start: time.Now()}
	rep := &report{metrics: map[string]metric{}}
	err = runWorkload(ctx, e, rep)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return printReport(e, rep)
}

// printReport prints the human-readable report and, last, the JSON
// result line.
func printReport(e *env, rep *report) int {
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	out := map[string]metric{}
	var idle []string
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		switch {
		case ok && v.Unit != m.unit:
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %s, want %s\n", m.name, v.Unit, m.unit)
			return 1
		case !ok && !e.trace:
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			return 1
		case !ok:
			v = metric{0, m.unit}
			idle = append(idle, m.name)
		}
		out[m.name] = v
	}
	hb, _ := json.Marshal(fingerprint())
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t\n", e.workload, e.seed, e.seconds, e.trace)
	fmt.Printf("host %s\n", hb)
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	if len(idle) > 0 {
		sort.Strings(idle)
		fmt.Printf("note: not exercised by %s (reported as 0): %s\n", e.workload, strings.Join(idle, " "))
	}
	for _, m := range want {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, out[m.name].Value, m.unit)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("  %-34s %14.6g 1 (%d of %d failed)\n", "failed_frac", frac, rep.failed, rep.attempted)
	for _, msg := range rep.errs {
		fmt.Println("failure:", msg)
	}
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// cpuClock is the machine's CPU time so far, in /proc/stat ticks.
type cpuClock struct{ total, steal uint64 }

// readCPUClock reads the aggregate "cpu" line of /proc/stat (user, nice,
// system, idle, iowait, irq, softirq, steal; guest time is already in
// user). It returns zero when the file cannot be read.
func readCPUClock() cpuClock {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuClock{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuClock{}
	}
	var c cpuClock
	for i := 1; i <= 8; i++ {
		n, _ := strconv.ParseUint(f[i], 10, 64)
		c.total += n
	}
	c.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return c
}

// stolenSince is the share of the machine's CPU time since c that the
// hypervisor gave to other guests (0 when unknown).
func (c cpuClock) stolenSince() float64 {
	now := readCPUClock()
	if now.total <= c.total {
		return 0
	}
	return float64(now.steal-c.steal) / float64(now.total-c.total)
}
