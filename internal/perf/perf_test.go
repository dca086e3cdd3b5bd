package perf

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"elfetch/internal/pipeline"
)

func tinySuite() Suite {
	return Suite{
		Workloads: []string{"401.bzip2"},
		Configs:   []pipeline.Config{pipeline.DefaultConfig()},
		Warmup:    2_000,
		Measure:   5_000,
	}
}

func TestSuiteRunAndRoundTrip(t *testing.T) {
	rec, err := tinySuite().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Cells) != 1 || rec.Cells[0].IPC <= 0 || rec.CyclesPerSec <= 0 ||
		rec.Cells[0].Spread < 0 || rec.Noise < 0 || rec.Noise >= 1 {
		t.Fatalf("implausible record: %+v", rec)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cells[0].IPC != rec.Cells[0].IPC || back.CyclesPerSec != rec.CyclesPerSec || back.Noise != rec.Noise {
		t.Fatalf("round trip lost data: %+v vs %+v", back, rec)
	}
}

func TestSuiteDeterministicIPC(t *testing.T) {
	a, err := tinySuite().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinySuite().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cells[0].IPC != b.Cells[0].IPC || a.Cells[0].Cycles != b.Cells[0].Cycles {
		t.Fatalf("suite is not deterministic: %+v vs %+v", a.Cells[0], b.Cells[0])
	}
	if r := Compare(a, b); !r.OK() {
		t.Fatalf("self-comparison failed: %+v", r.Failures)
	}
}

func TestCompareFlagsIPCDrift(t *testing.T) {
	base := &Record{
		Schema: Schema, Warmup: 1, Measure: 2,
		Host:         Host{Name: "h", CPUs: 1},
		CyclesPerSec: 1000,
		Cells:        []Cell{{Workload: "w", Config: "c", IPC: 1.5, Cycles: 100, CyclesPerSec: 1000}},
	}
	drifted := *base
	drifted.Cells = []Cell{{Workload: "w", Config: "c", IPC: 1.6, Cycles: 100, CyclesPerSec: 1000}}
	if r := Compare(base, &drifted); r.OK() {
		t.Fatal("IPC drift not flagged")
	}
}

func TestCompareThroughputGate(t *testing.T) {
	base := &Record{
		Schema: Schema, Warmup: 1, Measure: 2,
		Host:         Host{Name: "h", CPUs: 1},
		CyclesPerSec: 1000,
		Cells:        []Cell{{Workload: "w", Config: "c", IPC: 1.5, Cycles: 100, CyclesPerSec: 1000}},
	}
	slow := *base
	slow.CyclesPerSec = 900 // -10%: past the 5% gate
	if r := Compare(base, &slow); r.OK() {
		t.Fatal("same-host 10% regression not flagged")
	}
	// The same slowdown from a different host is advisory, not blocking.
	slow.Host = Host{Name: "other", CPUs: 64}
	if r := Compare(base, &slow); !r.OK() {
		t.Fatalf("cross-host wall-clock change must not block: %+v", r.Failures)
	}
	// Small same-host jitter passes.
	jitter := *base
	jitter.CyclesPerSec = 970
	if r := Compare(base, &jitter); !r.OK() {
		t.Fatalf("3%% jitter must pass: %+v", r.Failures)
	}
	// A recorded noise band widens the gate by its width, and no further.
	noisy := *base
	noisy.Noise = 0.08
	noisy.CyclesPerSec = 900 // -10%: inside 5% + 8%
	if r := Compare(base, &noisy); !r.OK() {
		t.Fatalf("10%% drop inside a 13%% noise-widened gate must pass: %+v", r.Failures)
	}
	noisy.CyclesPerSec = 850 // -15%: past it
	if r := Compare(base, &noisy); r.OK() {
		t.Fatal("15% drop past a 13% noise-widened gate not flagged")
	}
}

func TestCompareFlagsAllocGrowth(t *testing.T) {
	base := &Record{Schema: Schema, Host: Host{Name: "h"}, AllocsPerCycle: 0}
	leaky := *base
	leaky.AllocsPerCycle = 0.5
	if r := Compare(base, &leaky); r.OK() {
		t.Fatal("alloc growth not flagged")
	}
	if r := Compare(base, base); !r.OK() {
		t.Fatal("zero-alloc self-compare must pass")
	}
}

// TestHostFingerprint: a fresh record names its scheduler width (and its
// CPU model where /proc/cpuinfo names one), and BENCH_0001.json, written
// before those fields existed, still reads with them empty.
func TestHostFingerprint(t *testing.T) {
	rec, err := tinySuite().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Host.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("GOMAXPROCS = %d, want %d", rec.Host.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil &&
		strings.Contains(string(b), "model name") && rec.Host.CPUModel == "" {
		t.Error("no CPU model although /proc/cpuinfo names one")
	}
	old, err := ReadRecord(filepath.Join("..", "..", "BENCH_0001.json"))
	if err != nil {
		t.Fatal(err)
	}
	if old.Host.CPUModel != "" || old.Host.GOMAXPROCS != 0 || old.Host.Name == "" {
		t.Errorf("BENCH_0001.json host read as %+v", old.Host)
	}
	b, err := json.Marshal(old.Host)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "cpu_model") || strings.Contains(string(b), "gomaxprocs") {
		t.Errorf("empty fingerprint fields not omitted: %s", b)
	}
}
