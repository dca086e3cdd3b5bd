package main

import (
	"context"
	"math"
	"sort"
	"strings"
	"time"

	"elfetch/internal/obs"
)

// tracer records the benchmark's spans into an obs.SpanLog. Span names
// are "<layer>.<operation>"; the layer is the repo module the call goes
// into ("bench" is the harness itself). A nil tracer records nothing, so
// the untraced paths share code with the traced ones at the cost of a
// nil check.
type tracer struct{ log *obs.SpanLog }

// maxSpans bounds the log; a traced run records well under this.
const maxSpans = 1 << 20

func newTracer() *tracer { return &tracer{log: obs.NewSpanLog(maxSpans)} }

func (t *tracer) start(parent *obs.Span, name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.log.StartSpan(parent, name)
}

// finish ends a span started by start; nil (untraced) is a no-op.
func finish(s *obs.Span) {
	if s != nil {
		s.Finish()
	}
}

// benchSpanKey carries the benchmark's current span through contexts
// handed to the program. It is a key of the benchmark's own, so code
// inside the program that installs its own current span (exec.Fleet
// does) does not hide it.
type benchSpanKey struct{}

func withBenchSpan(ctx context.Context, s *obs.Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, benchSpanKey{}, s)
}

func benchSpan(ctx context.Context) *obs.Span {
	s, _ := ctx.Value(benchSpanKey{}).(*obs.Span)
	return s
}

// layerOf is the module a span's time is charged to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layers lists every layer the traced runs report, in report order.
var layers = []string{"bench", "workload", "pipeline", "eval", "sched", "exec", "store", "elfd"}

// attribution is the traced run's split of wall-clock time by layer.
type attribution struct {
	// E2E is the summed duration of the root spans: the traced run's
	// end-to-end time.
	E2E float64
	// Self is each layer's self time in seconds. A span's self time is
	// the part of its interval its children do not cover; where k spans
	// are in their self time at once (parallel workers), each is charged
	// 1/k of that stretch, so the layers' self times add up to E2E.
	Self map[string]float64
	// Spans counts spans per layer.
	Spans map[string]int
}

// attribute computes self times over a finished span log whose roots do
// not overlap in time (the benchmark runs its traced phases one after
// another).
func attribute(spans []obs.Span) attribution {
	a := attribution{Self: map[string]float64{}, Spans: map[string]int{}}
	byID := make(map[obs.SpanID]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	kids := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		a.Spans[layerOf(s.Name)]++
		if byID[s.Parent] {
			kids[s.Parent] = append(kids[s.Parent], s)
		} else {
			a.E2E += s.End.Sub(s.Start).Seconds()
		}
	}
	type edge struct {
		at    time.Time
		delta int
		layer string
	}
	var edges []edge
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start.Before(ch[j].Start) })
		cur := s.Start
		emit := func(to time.Time) {
			if to.After(cur) {
				l := layerOf(s.Name)
				edges = append(edges, edge{cur, 1, l}, edge{to, -1, l})
				cur = to
			}
		}
		for _, c := range ch {
			from, to := maxTime(c.Start, s.Start), minTime(c.End, s.End)
			if from.After(cur) {
				emit(from)
			}
			if to.After(cur) {
				cur = to
			}
		}
		emit(s.End)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	active := map[string]int{}
	total := 0
	for i, e := range edges {
		if i > 0 && total > 0 {
			dt := e.at.Sub(edges[i-1].at).Seconds()
			for l, n := range active {
				a.Self[l] += dt * float64(n) / float64(total)
			}
		}
		active[e.layer] += e.delta
		total += e.delta
	}
	return a
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// durations returns the durations in seconds of the spans named name.
func durations(spans []obs.Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start).Seconds())
		}
	}
	return out
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
