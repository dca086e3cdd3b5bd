package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/exec"
	"elfetch/internal/obs"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// serve-mixed sizing. A round is a fixed request count against a fresh
// elfd on a fresh copy of the primed store, so memory retained per
// request compares like with like between runs. The sizes are the
// benchmark's own choice, not recorded traffic; README.md gives the
// reasoning and the measured shares they produce.
const (
	roundRequests = 6000
	hotCells      = 16   // repeats of these are LRU hits
	storeCells    = 400  // in the primed store, too many for the LRU
	lruEntries    = 64   // elfd -cache: the hot set, with room for store reads passing through
	hotFrac       = 0.78 // share of requests to the hot set
	storeFrac     = 0.20 // share to store-only cells; the rest are fresh
	extraStarts   = 12   // elfd start-ups timed on their own, for setup_s
)

type reqKind int

const (
	kindHot reqKind = iota
	kindStore
	kindFresh
)

type request struct {
	cell eval.Cell
	key  string // sched.Key("cell", cell), the cell's content address
}

// serveStream is one seed's inputs to serve-mixed.
type serveStream struct {
	reqs   []request
	primed []eval.Cell // hot and store-only cells, stored before the run
	fresh  []eval.Cell // the distinct fresh cells, in request order
	// warm holds, for every workload, one cell the stream never
	// requests. Each round sends them before its clock starts: elfd
	// generates a workload's program on its first request for it, and
	// that one-off cost would otherwise land in the round's latencies.
	warm []eval.Cell
}

// stream draws one run's requests from the seed: a hot set, a
// store-only set and fresh cells, all from the referenced universe.
func stream(seed int64) serveStream {
	rng := rand.New(rand.NewSource(seed))
	u := universe()
	perm := rng.Perm(len(u))
	pick := func(idx []int) []request {
		out := make([]request, len(idx))
		for i, j := range idx {
			out[i] = request{cell: u[j], key: sched.Key("cell", u[j])}
		}
		return out
	}
	hot, stored, pool := pick(perm[:hotCells]), pick(perm[hotCells:hotCells+storeCells]), perm[hotCells+storeCells:]
	var out serveStream
	for _, r := range append(append([]request(nil), hot...), stored...) {
		out.primed = append(out.primed, r.cell)
	}
	// Exact shares, in a seeded order, so every seed's round does the
	// same amount of each kind of work.
	kinds := make([]reqKind, roundRequests)
	nHot, nStore := int(hotFrac*roundRequests), int(storeFrac*roundRequests)
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = kindHot
		case i < nHot+nStore:
			kinds[i] = kindStore
		default:
			kinds[i] = kindFresh
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, k := range kinds {
		var r request
		switch k {
		case kindHot:
			r = hot[rng.Intn(len(hot))]
		case kindStore:
			r = stored[rng.Intn(len(stored))]
		default:
			c := u[pool[len(out.fresh)]] // the pool outlasts a round's fresh share
			r = request{cell: c, key: sched.Key("cell", c)}
			out.fresh = append(out.fresh, c)
		}
		out.reqs = append(out.reqs, r)
	}
	// The shortest unused cell of each workload warms it.
	warm := map[string]int{} // workload -> index into u
	for _, j := range pool[len(out.fresh):] {
		w, ok := warm[u[j].Workload]
		if !ok || u[j].Warmup+u[j].Measure < u[w].Warmup+u[w].Measure {
			warm[u[j].Workload] = j
		}
	}
	for j, c := range u {
		if w, ok := warm[c.Workload]; ok && w == j {
			out.warm = append(out.warm, c)
		}
	}
	return out
}

// closedLoop calls fn(i) for every i in [0, n) from callers goroutines,
// each taking the next index when its previous call has returned.
func closedLoop(callers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// serveRun holds serve-mixed's state across its phases.
type serveRun struct {
	env *env
	rep *report
	serveStream
	dir      string // this run's scratch directory
	template string // the primed store directory every round copies
	rounds   int
	values   map[string][]byte // encoded results by key, for the Disk phase
}

func runServe(ctx context.Context, env *env, rep *report) error {
	if env.elfdBin == "" {
		return errors.New("serve-mixed needs -elfd")
	}
	dir, err := os.MkdirTemp(env.work, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := &serveRun{env: env, rep: rep, serveStream: stream(env.seed), dir: dir,
		template: filepath.Join(dir, "primed"), values: map[string][]byte{}}
	if err := s.prime(ctx); err != nil {
		return err
	}
	env.begin()
	if !env.trace {
		var ready, walls, steal, warms, rates, hwm, lat []float64
		// Start-up alone is a few milliseconds, so it gets extra samples.
		for i := 0; i < extraStarts; i++ {
			p, err := s.startElfd(ctx)
			if err != nil {
				return err
			}
			ready = append(ready, p.ready)
			p.stop()
		}
		for i := 0; i < 3 || time.Now().Before(env.deadline()); i++ {
			out, err := s.round(ctx, nil, "fleet")
			if err != nil {
				return err
			}
			ready = append(ready, out.ready)
			walls = append(walls, out.wall)
			steal = append(steal, out.steal)
			warms = append(warms, out.warm)
			rates = append(rates, float64(len(s.reqs))/out.wall)
			hwm = append(hwm, float64(out.hwmKB)/1024)
			lat = append(lat, out.lat...)
		}
		rep.set("setup_s", "s", median(ready))
		rep.set("grid_s", "s", median(walls))
		rep.set("cell_p50_ms", "ms", 1e3*quantile(lat, 0.50))
		rep.set("cell_p99_ms", "ms", 1e3*quantile(lat, 0.99))
		rep.set("cells_per_s", "1/s", median(rates))
		rep.set("peak_rss_mb", "MB", median(hwm))
		rep.note("rounds (s): %.3f", walls)
		rep.note("share of CPU time stolen by the hypervisor during each round: %.3f", steal)
		rep.note("elfd warm-ups before each round's clock, %d cells (s): %.3f", len(s.warm), warms)
		rep.note("start-ups (ms): %.2f", scale(ready, 1e3))
		rep.note("samples: %d elfd start-ups, %d rounds of %d requests (%d fresh cells each), %d latencies",
			len(ready), len(walls), len(s.reqs), len(s.fresh), len(lat))
		return nil
	}

	// Traced: the same stream at each hop in turn.
	tr := newTracer()
	plain, err := s.round(ctx, nil, "fleet")
	if err != nil {
		return err
	}
	fl, err := s.round(ctx, tr, "fleet")
	if err != nil {
		return err
	}
	if _, err := s.round(ctx, tr, "post"); err != nil {
		return err
	}
	if err := s.localPhase(ctx, tr); err != nil {
		return err
	}
	if err := s.diskPhase(ctx, tr); err != nil {
		return err
	}
	acc := &pipeAcc{stages: map[string]int64{}}
	replay, err := replayCells(ctx, env, rep, tr, "bench.replay", s.fresh, acc)
	if err != nil {
		return err
	}
	// The round's fresh cells, simulated alone on nproc workers, against
	// the whole untraced round: the share of a round that is simulation.
	rep.note("simulating a round's %d fresh cells in-process takes %.3f s, %.1f%% of the untraced round's %.3f s",
		len(s.fresh), replay, 100*replay/plain.wall, plain.wall)
	rep.note("elfd warm-up before the traced round's clock, %d cells: %.3f s", len(s.warm), fl.warm)
	spans := tr.log.Snapshot()
	rep.set("workload.program_ms", "ms", 1e3*sum(durations(spans, "workload.program")))
	acc.report(rep, spans, 1)
	rep.set("sched.cache_hit_ratio", "1", fl.stats.CacheHitRate)
	if len(fl.stats.Store) > 0 {
		d := fl.stats.Store[0]
		rep.set("store.disk.hit_ratio", "1", float64(d.Hits)/float64(d.Hits+d.Misses))
	}
	rep.set("exec.fleet.retried", "count", float64(fl.retried))
	rep.set("exec.fleet.failed", "count", float64(fl.fleetFailed))
	post := postDurations(spans)
	rep.set("exec.fleet.overhead_us_p50", "us",
		1e6*(quantile(durations(spans, "exec.fleet"), 0.5)-quantile(post, 0.5)))
	rep.set("elfd.post_us_p50", "us", 1e6*quantile(post, 0.50))
	rep.set("elfd.post_us_p99", "us", 1e6*quantile(post, 0.99))
	rep.set("elfd.ready_ms", "ms", 1e3*fl.ready)
	rep.set("elfd.requests_2xx", "count", fl.requests2xx)
	rep.set("elfd.rss_kb_per_kreq", "KB", plain.rssKBPerKReq)
	rep.set("trace.overhead_frac", "1", fl.wall/plain.wall-1)
	return finishTrace(env, rep, spans)
}

// postDurations are the direct-POST phase's request spans (the fleet
// phase's "elfd.post" spans sit under "exec.fleet" parents instead).
func postDurations(spans []obs.Span) []float64 {
	roots := map[obs.SpanID]bool{}
	for _, sp := range spans {
		if sp.Name == "bench.post_round" {
			roots[sp.ID] = true
		}
	}
	var out []float64
	for _, sp := range spans {
		if sp.Name == "elfd.post" && roots[sp.Parent] {
			out = append(out, sp.End.Sub(sp.Start).Seconds())
		}
	}
	return out
}

// prime fills the template store with the hot and store-only cells the
// way elfd fills its own: through exec.Local over a store.Disk.
func (s *serveRun) prime(ctx context.Context) error {
	disk, err := store.Open(store.DiskConfig{Dir: s.template})
	if err != nil {
		return err
	}
	local := exec.NewLocal(exec.LocalConfig{Workers: s.env.nproc, Store: disk})
	cells := s.primed
	errs := make([]error, len(cells))
	closedLoop(s.env.nproc, len(cells), func(i int) {
		r, err := local.Run(ctx, cells[i])
		if err == nil {
			err = s.env.ref.check(cellID(cells[i]), r.Committed, r.Cycles)
		}
		errs[i] = err
	})
	closeErr := errors.Join(local.Close(), disk.Close())
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("priming the store: %w", err)
	}
	return closeErr
}

// elfdProc is one elfd child serving on a loopback port.
type elfdProc struct {
	cmd    *osexec.Cmd
	url    string
	pid    string
	ready  float64 // seconds from exec to the first 200 on /v1/healthz
	exited chan error
	log    *os.File
	dir    string // round directory: the store copy and the log
}

// startElfd execs elfd on a fresh copy of the primed store and waits for
// its health check. The caller must stop it on every path.
func (s *serveRun) startElfd(ctx context.Context) (*elfdProc, error) {
	s.rounds++
	dir := filepath.Join(s.dir, fmt.Sprintf("round%d", s.rounds))
	storeDir := filepath.Join(dir, "store")
	if err := copyDir(s.template, storeDir); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "elfd.log"))
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			logf.Close()
			return nil, err
		}
		p := &elfdProc{url: "http://127.0.0.1:" + port, exited: make(chan error, 1), log: logf, dir: dir}
		p.cmd = osexec.Command(s.env.elfdBin, "-addr", "127.0.0.1:"+port,
			"-workers", strconv.Itoa(s.env.nproc), "-store-dir", storeDir,
			"-cache", strconv.Itoa(lruEntries))
		p.cmd.Stdout, p.cmd.Stderr = logf, logf
		// The child dies with the benchmark even if the benchmark is
		// killed outright and cannot stop it.
		p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := p.cmd.Start(); err != nil {
			logf.Close()
			return nil, err
		}
		p.pid = strconv.Itoa(p.cmd.Process.Pid)
		go func() { p.exited <- p.cmd.Wait() }()
		if lastErr = p.awaitHealthy(ctx, start); lastErr == nil {
			return p, nil
		}
		p.kill()
		if ctx.Err() != nil {
			break
		}
	}
	logf.Close()
	return nil, fmt.Errorf("starting elfd: %w", lastErr)
}

func (p *elfdProc) awaitHealthy(ctx context.Context, start time.Time) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < 30*time.Second {
		select {
		case err := <-p.exited:
			p.exited <- err
			return fmt.Errorf("elfd exited before it was healthy: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(p.url + "/v1/healthz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			obs.DrainClose(resp.Body)
			if ok {
				p.ready = time.Since(start).Seconds()
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("elfd not healthy after 30s")
}

// kill stops the child and reaps it.
func (p *elfdProc) kill() {
	_ = p.cmd.Process.Kill() // fails only when it has already exited
	err := <-p.exited
	p.exited <- err
}

// stop kills and reaps the child and removes its files.
func (p *elfdProc) stop() {
	p.kill()
	p.log.Close()
	os.RemoveAll(p.dir)
}

func (p *elfdProc) getJSON(path string, v any) error {
	resp, err := http.Get(p.url + path)
	if err != nil {
		return err
	}
	defer obs.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// requests2xx reads elfd_http_requests_total{code="2xx"} from /metrics.
func (p *elfdProc) requests2xx() (float64, error) {
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer obs.DrainClose(resp.Body)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, `elfd_http_requests_total{code="2xx"}`) {
			f := strings.Fields(line)
			return strconv.ParseFloat(f[len(f)-1], 64)
		}
	}
	return 0, errors.New("no 2xx request count on /metrics")
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// elfdStats is the part of elfd's /debug/stats the benchmark reads.
type elfdStats struct {
	CacheHitRate float64           `json:"cacheHitRate"`
	Store        []store.TierStats `json:"store"`
}

// roundOut is one round's measurements.
type roundOut struct {
	ready        float64   // elfd exec to healthy, seconds
	warm         float64   // the warm-up requests, seconds
	wall         float64   // all requests, seconds
	steal        float64   // share of CPU time stolen from start-up to the end
	lat          []float64 // per request, seconds
	hwmKB        int64     // elfd VmHWM at the end of the round
	rssKBPerKReq float64   // elfd VmRSS growth over the last 3/4 of the round
	retried      uint64
	fleetFailed  uint64
	stats        elfdStats // traced rounds only
	requests2xx  float64   // traced rounds only
}

// round sends the whole stream to a fresh elfd from nproc closed-loop
// callers, each waiting for its reply before taking the next request.
// mode "fleet" calls exec.Fleet.Run (one worker, no local fallback);
// mode "post" POSTs /v1/cells directly.
func (s *serveRun) round(ctx context.Context, tr *tracer, mode string) (roundOut, error) {
	var out roundOut
	clock := readCPUClock()
	p, err := s.startElfd(ctx)
	if err != nil {
		return out, err
	}
	defer p.stop()
	out.ready = p.ready

	callers := s.env.nproc
	transport := &http.Transport{MaxIdleConnsPerHost: callers}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	var call func(context.Context, eval.Cell) (eval.Result, error)
	var fleet *exec.Fleet
	reqSpan := "exec.fleet"
	switch mode {
	case "fleet":
		if tr != nil {
			client.Transport = spanTransport{transport, tr}
		}
		if fleet, err = exec.NewFleet(exec.FleetConfig{Workers: []string{p.url}, Client: client}); err != nil {
			return out, err
		}
		defer fleet.Close()
		call = fleet.Run
	case "post":
		reqSpan = "elfd.post"
		call = func(ctx context.Context, c eval.Cell) (eval.Result, error) { return postCell(ctx, client, p.url, c) }
	}

	// check is a reply's correctness check.
	check := func(c eval.Cell, r eval.Result, err error) error {
		if err == nil {
			err = s.env.ref.check(cellID(c), r.Committed, r.Cycles)
		}
		if err == nil && (r.Workload != c.Workload || r.Config != c.Config.Name()) {
			err = fmt.Errorf("cell %s answered as %s/%s", cellID(c), r.Workload, r.Config)
		}
		return err
	}
	warmErrs := make([]error, len(s.warm))
	start := time.Now()
	closedLoop(callers, len(s.warm), func(i int) {
		r, err := call(ctx, s.warm[i])
		warmErrs[i] = check(s.warm[i], r, err)
	})
	out.warm = time.Since(start).Seconds()

	lat := make([]float64, len(s.reqs))
	errs := make([]error, len(s.reqs))
	var rss25 atomic.Int64
	root := tr.start(nil, "bench."+mode+"_round")
	start = time.Now()
	closedLoop(callers, len(s.reqs), func(i int) {
		if i == len(s.reqs)/4 {
			rss25.Store(vmKB(p.pid, "VmRSS"))
		}
		c := s.reqs[i].cell
		sp := tr.start(root, reqSpan)
		t0 := time.Now()
		r, err := call(withBenchSpan(ctx, sp), c)
		lat[i] = time.Since(t0).Seconds()
		finish(sp)
		errs[i] = check(c, r, err)
	})
	out.wall = time.Since(start).Seconds()
	out.steal = clock.stolenSince()
	rssEnd := vmKB(p.pid, "VmRSS")
	out.hwmKB = vmKB(p.pid, "VmHWM")
	out.rssKBPerKReq = float64(rssEnd-rss25.Load()) / (float64(len(s.reqs)-len(s.reqs)/4) / 1000)
	out.lat = lat
	finish(root)
	if fleet != nil {
		st := fleet.Stats()
		out.fleetFailed = st.Failed
		for _, w := range st.Workers {
			out.retried += w.Retried
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	s.rep.attempted += len(s.warm) + len(s.reqs)
	for _, err := range append(warmErrs, errs...) {
		if err != nil {
			s.rep.fail(err)
		}
	}
	if tr != nil {
		if err := p.getJSON("/debug/stats", &out.stats); err != nil {
			return out, err
		}
		if out.requests2xx, err = p.requests2xx(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// postCell is one direct POST /v1/cells round trip.
func postCell(ctx context.Context, client *http.Client, url string, c eval.Cell) (eval.Result, error) {
	body, err := json.Marshal(c)
	if err != nil {
		return eval.Result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return eval.Result{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return eval.Result{}, err
	}
	defer obs.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return eval.Result{}, fmt.Errorf("POST /v1/cells %s: %s: %s", cellID(c), resp.Status, msg)
	}
	var r eval.Result
	err = json.NewDecoder(resp.Body).Decode(&r)
	return r, err
}

// spanTransport records an "elfd.post" span around each round trip the
// fleet makes on behalf of a benchmark span; the fleet's own health
// probes carry none and pass through unrecorded.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := benchSpan(req.Context())
	if parent == nil {
		return t.base.RoundTrip(req)
	}
	sp := t.tr.start(parent, "elfd.post")
	defer finish(sp)
	return t.base.RoundTrip(req)
}

// spanStore records "store.get" and "store.put" spans around a Disk's
// calls, parented to the exec.Local request in progress.
type spanStore struct {
	store.Store
	tr  *tracer
	cur atomic.Pointer[obs.Span]
}

func (s *spanStore) Get(key string) ([]byte, bool, error) {
	sp := s.tr.start(s.cur.Load(), "store.get")
	defer finish(sp)
	return s.Store.Get(key)
}

func (s *spanStore) Put(key string, value []byte) error {
	sp := s.tr.start(s.cur.Load(), "store.put")
	defer finish(sp)
	return s.Store.Put(key, value)
}

// localPhase sends the stream, from one caller, through exec.Local over
// a store.Disk opened on a fresh copy of the primed store. One caller
// lets the scheduler's hit counter classify each request exactly.
func (s *serveRun) localPhase(ctx context.Context, tr *tracer) error {
	root := tr.start(nil, "bench.local")
	defer finish(root)
	dir := filepath.Join(s.dir, "local")
	if err := copyDir(s.template, dir); err != nil {
		return err
	}
	sp := tr.start(root, "store.open")
	disk, err := store.Open(store.DiskConfig{Dir: dir})
	finish(sp)
	if err != nil {
		return err
	}
	defer disk.Close()
	st := &spanStore{Store: disk, tr: tr}
	local := exec.NewLocal(exec.LocalConfig{Workers: s.env.nproc, CacheSize: lruEntries, Store: st})
	defer local.Close()
	var hits []float64
	for _, rq := range s.reqs {
		before := local.Stats().Scheduler.Cache.Hits
		sp := tr.start(root, "exec.local")
		st.cur.Store(sp)
		t0 := time.Now()
		r, err := local.Run(ctx, rq.cell)
		d := time.Since(t0).Seconds()
		finish(sp)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.rep.attempted++
		if err == nil {
			err = s.env.ref.check(cellID(rq.cell), r.Committed, r.Cycles)
		}
		if err != nil {
			s.rep.fail(err)
			continue
		}
		if local.Stats().Scheduler.Cache.Hits > before {
			hits = append(hits, d)
		}
		if _, ok := s.values[rq.key]; !ok {
			b, err := json.Marshal(r)
			if err != nil {
				return err
			}
			s.values[rq.key] = b
		}
	}
	s.rep.set("exec.local.hit_us_p50", "us", 1e6*quantile(hits, 0.50))
	s.rep.set("exec.local.hit_us_p99", "us", 1e6*quantile(hits, 0.99))
	return nil
}

// diskPhase sends the stream's keys straight to a store.Disk opened on a
// fresh copy of the primed store: a Get per request, and a Put of the
// encoded result where the Get missed.
func (s *serveRun) diskPhase(ctx context.Context, tr *tracer) error {
	root := tr.start(nil, "bench.disk")
	defer finish(root)
	dir := filepath.Join(s.dir, "disk")
	if err := copyDir(s.template, dir); err != nil {
		return err
	}
	sp := tr.start(root, "store.open")
	t0 := time.Now()
	disk, err := store.Open(store.DiskConfig{Dir: dir})
	s.rep.set("store.disk.open_ms", "ms", 1e3*time.Since(t0).Seconds())
	finish(sp)
	if err != nil {
		return err
	}
	defer disk.Close()
	var gets, puts []float64
	for _, rq := range s.reqs {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := tr.start(root, "store.get")
		t0 := time.Now()
		b, ok, err := disk.Get(rq.key)
		gets = append(gets, time.Since(t0).Seconds())
		finish(sp)
		s.rep.attempted++
		if err != nil {
			s.rep.fail(err)
			continue
		}
		if ok {
			var r eval.Result
			if err := json.Unmarshal(b, &r); err != nil {
				s.rep.fail(err)
			} else if err := s.env.ref.check(cellID(rq.cell), r.Committed, r.Cycles); err != nil {
				s.rep.fail(err)
			}
			continue
		}
		v, known := s.values[rq.key]
		if !known {
			s.rep.fail(fmt.Errorf("no result to store for %s", cellID(rq.cell)))
			continue
		}
		sp = tr.start(root, "store.put")
		t0 = time.Now()
		err = disk.Put(rq.key, v)
		puts = append(puts, time.Since(t0).Seconds())
		finish(sp)
		if err != nil {
			s.rep.fail(err)
		}
	}
	s.rep.set("store.disk.get_us_p50", "us", 1e6*quantile(gets, 0.50))
	s.rep.set("store.disk.get_us_p99", "us", 1e6*quantile(gets, 0.99))
	s.rep.set("store.disk.put_us_p50", "us", 1e6*quantile(puts, 0.50))
	s.rep.set("store.disk.put_us_p99", "us", 1e6*quantile(puts, 0.99))
	return nil
}
