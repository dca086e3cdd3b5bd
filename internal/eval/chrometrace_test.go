package eval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"elfetch/internal/core"
	"elfetch/internal/pipeline"
	"elfetch/internal/program"
	"elfetch/internal/workload"
)

// TestTracerChromeTraceGolden pins the Chrome trace-event bytes of a fixed
// cycle window: 641.leela_s under U-ELF, 2k measured instructions after a
// short warmup, with a tracer large enough to hold the whole window. The
// export is 1.4 MB, so the golden holds its SHA-256 and length rather than
// the bytes; any change to the encoder or to the tracer's records fails it
// (regenerate with -update-golden only on purpose).
func TestTracerChromeTraceGolden(t *testing.T) {
	e, err := workload.Lookup("641.leela_s")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig().WithVariant(core.UELF)
	_, tr, err := RunOneTraced(context.Background(), e, cfg, Params{Warmup: 1_000, Measure: 2_000}, 16_384)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf("sha256:%x bytes:%d\n", sha256.Sum256(buf.Bytes()), buf.Len())
	checkGolden(t, filepath.Join("testdata", "golden_chrome_leela_uelf.sha256"), []byte(digest))
}

func TestWriteChromeTrace(t *testing.T) {
	// A coin-flip branch keeps squashes and wrong-path slices frequent.
	b := program.NewBuilder(0x10000)
	f := b.Func("main")
	loop := f.Block("loop")
	loop.Nop(4)
	loop.CondTo(program.Bernoulli{P: 0.5, Salt: 7}, "other")
	loop.Nop(2)
	loop.JumpTo("loop")
	other := f.Block("other")
	other.Nop(2)
	other.JumpTo("loop")
	prog, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	m := pipeline.MustNew(pipeline.DefaultConfig().WithVariant(core.UELF), prog)
	m.Run(2_000)
	tr := pipeline.NewTracer(512)
	m.AttachTracer(tr)
	m.Run(400)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var slices, metas int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur == 0 {
				t.Errorf("complete event %q has zero duration", e.Name)
			}
			if e.TID < tidFetch || e.TID > tidBackend {
				t.Errorf("slice %q on unknown tid %d", e.Name, e.TID)
			}
			if _, ok := e.Args["seq"]; !ok {
				t.Errorf("slice %q missing seq arg", e.Name)
			}
		case "M":
			metas++
		}
	}
	if slices == 0 {
		t.Fatal("no pipeline slices in the trace")
	}
	if metas != 4 { // process name + 3 thread names
		t.Errorf("metadata events = %d, want 4", metas)
	}
}
