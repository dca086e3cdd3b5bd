package obs

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the Chrome trace golden fixtures from current encoder output")

// checkGolden compares got with the fixture at path, or rewrites the
// fixture under -update-golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update-golden): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Chrome trace export diverged from the golden fixture:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestChromeTraceGoldenCanonical pins the canonical export of a small
// coordinator + two-worker grid recorded on an unseeded SpanLog: ids,
// parents, workers, attributes and error slices, with rank timestamps.
func TestChromeTraceGoldenCanonical(t *testing.T) {
	l := NewSpanLog(0)
	grid := l.StartSpan(nil, "grid")
	grid.SetAttr("figure", "6")
	for _, w := range []string{"w2", "w1"} {
		c := l.StartSpan(grid, "cell")
		c.Worker = w
		c.SetAttr("cell", "srv64k/base")
		a := l.StartSpan(c, "attempt")
		a.Worker = w
		a.Finish()
		c.Finish()
	}
	bad := l.StartSpan(grid, "attempt")
	bad.Worker = "w2"
	bad.SetError(context.DeadlineExceeded)
	bad.Finish()
	grid.Finish()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, l.Snapshot(), true); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_chrome_canonical.json"), buf.Bytes())
}

// TestChromeTraceGoldenWallClock pins the wall-clock export over fixed
// timestamps: microsecond offsets from the earliest start, real
// durations, the one-microsecond floor for an instant span, and pids in
// sorted worker order.
func TestChromeTraceGoldenWallClock(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	var tr TraceID
	tr[15] = 1
	spans := []Span{
		{Trace: tr, ID: SpanID{7: 4}, Parent: SpanID{7: 1}, Name: "cell", Worker: "http://b:1",
			Start: at(40), End: at(90), Attrs: []Label{{Name: "cell", Value: "x/U-ELF"}}},
		{Trace: tr, ID: SpanID{7: 1}, Name: "grid", Start: at(0), End: at(120)},
		{Trace: tr, ID: SpanID{7: 2}, Parent: SpanID{7: 1}, Name: "cell", Worker: "http://a:1",
			Start: at(10), End: at(35)},
		{Trace: tr, ID: SpanID{7: 3}, Parent: SpanID{7: 2}, Name: "attempt", Worker: "http://a:1",
			Start: at(12), End: at(12), Err: "context deadline exceeded"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, false); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "golden_chrome_wallclock.json"), buf.Bytes())
}
