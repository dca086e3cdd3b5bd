package main

import (
	"bytes"
	"context"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// span builds a finished span at offsets (in ms) from t0.
func span(id, parent byte, name string, from, to int) obs.Span {
	t0 := time.Unix(0, 0)
	s := obs.Span{Name: name, Start: t0.Add(time.Duration(from) * time.Millisecond),
		End: t0.Add(time.Duration(to) * time.Millisecond)}
	s.ID[7], s.Parent[7] = id, parent
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAttributeSelfTimesSumToEndToEnd(t *testing.T) {
	// A 100 ms root with two parallel 40 ms children, one of which has a
	// 10 ms child of its own; then a second 20 ms root with no children.
	spans := []obs.Span{
		span(1, 0, "bench.grid", 0, 100),
		span(2, 1, "eval.cell", 10, 50),
		span(3, 1, "eval.cell", 10, 50),
		span(4, 2, "pipeline.new", 20, 30),
		span(5, 0, "bench.disk", 200, 220),
	}
	a := attribute(spans)
	if !near(a.E2E, 0.120) {
		t.Fatalf("E2E = %v, want 0.120", a.E2E)
	}
	total := 0.0
	for _, v := range a.Self {
		total += v
	}
	if !near(total, a.E2E) {
		t.Fatalf("self times sum to %v, want E2E %v", total, a.E2E)
	}
	// 10-20 and 30-50: both cells in self time (eval gets all of it);
	// 20-30: one cell and pipeline.new share it.
	want := map[string]float64{"bench": 0.010 + 0.050 + 0.020, "eval": 0.030 + 0.005, "pipeline": 0.005}
	for l, w := range want {
		if !near(a.Self[l], w) {
			t.Errorf("self[%s] = %v, want %v", l, a.Self[l], w)
		}
	}
	if a.Spans["eval"] != 2 || a.Spans["bench"] != 2 {
		t.Errorf("span counts %v", a.Spans)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestStageSharesFromProfile(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipeline.New(pipeline.DefaultConfig(), e.Program())
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := m.RunContext(context.Background(), 20_000); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	counts := map[string]int64{}
	if err := stageSamples(prof.Bytes(), counts); err != nil {
		t.Fatal(err)
	}
	shares := stageShares(counts)
	total := 0.0
	for _, st := range stages {
		total += shares[st]
	}
	if !near(total, 1) {
		t.Fatalf("shares sum to %v (counts %v)", total, counts)
	}
	if shares["other"] > 0.5 {
		t.Errorf("most of Cycle landed outside the named stages: %v", shares)
	}
}
