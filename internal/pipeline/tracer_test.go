package pipeline

import (
	"bytes"
	"strings"
	"testing"
)

func TestTracerRecordsLifecycle(t *testing.T) {
	m := MustNew(DefaultConfig(), straightLine(t, 30))
	m.Run(5_000)
	tr := NewTracer(4096)
	m.AttachTracer(tr)
	m.Run(2_000)

	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	retired := 0
	for _, e := range evs {
		if e.Fetched == 0 {
			t.Fatal("event without fetch timestamp")
		}
		if e.Retired != 0 {
			retired++
			if !(e.Fetched <= e.Decoded && e.Decoded <= e.Renamed && e.Renamed <= e.Retired) {
				t.Fatalf("out-of-order timestamps: %+v", e)
			}
		}
	}
	if retired == 0 {
		t.Fatal("no retired events")
	}
}

func TestTracerBounded(t *testing.T) {
	m := MustNew(DefaultConfig(), straightLine(t, 30))
	tr := NewTracer(64)
	m.AttachTracer(tr)
	m.Run(5_000)
	if len(tr.Events()) > 64 {
		t.Fatalf("tracer retained %d events, bound 64", len(tr.Events()))
	}
}

func TestPipeviewRenders(t *testing.T) {
	m := MustNew(DefaultConfig(), straightLine(t, 30))
	m.Run(2_000)
	tr := NewTracer(4096)
	m.AttachTracer(tr)
	m.Run(1_000)
	var buf bytes.Buffer
	if err := tr.WritePipeview(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "F") || !strings.Contains(out, "C") {
		t.Fatalf("pipeview lacks marks:\n%s", out)
	}
	buf.Reset()
	if err := tr.WritePipeview(&buf, 20); err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); n > 21 {
		t.Errorf("maxRows not honoured: %d lines", n)
	}
}

func TestPipeviewEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer(8).WritePipeview(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events") {
		t.Error("empty tracer output")
	}
}

// TestTracerKeepsRecordingLongWindows: a small tracer must still hold
// recent instructions at the end of a long window. Squashed records used
// to stay open until CloseSquashed, so once Max of them piled up the
// tracer could drop nothing and stopped recording for good.
func TestTracerKeepsRecordingLongWindows(t *testing.T) {
	m := mustWorkloadMachine(t, DefaultConfig(), "641.leela_s")
	tr := NewTracer(32)
	m.AttachTracer(tr)
	const window, recent = 20_000, 1_000
	for m.Now() < window {
		m.Cycle()
	}
	evs := tr.Events()
	if len(evs) == 0 || evs[len(evs)-1].Fetched < window-recent {
		last := uint64(0)
		if len(evs) > 0 {
			last = evs[len(evs)-1].Fetched
		}
		t.Fatalf("newest of %d records fetched at cycle %d, want one from the last %d of %d cycles",
			len(evs), last, recent, window)
	}
	if m.Stats.Flushes == [len(m.Stats.Flushes)]uint64{} {
		t.Fatal("no flushes in the window: nothing was squashed, the test proves nothing")
	}
}
