package eval

import (
	"context"
	"fmt"
	"io"

	"elfetch/internal/obs"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// NewProbe builds a pipeline.Probe whose observers are histograms on reg,
// named for the paper's front-end distributions:
//
//	elf_flush_recovery_cycles   flush applied -> next commit
//	elf_faq_occupancy_blocks    FAQ depth, sampled every SampleEvery cycles
//	elf_coupled_residency_cycles  EnterCoupled -> switch back to decoupled
//	elf_resync_drain_cycles     resync prepare -> actual mode switch
//
// Registration is idempotent, so calling NewProbe repeatedly against one
// registry (e.g. once per elfd job) accumulates into the same series.
func NewProbe(reg *obs.Registry) *pipeline.Probe {
	return &pipeline.Probe{
		FlushRecovery: reg.Histogram("elf_flush_recovery_cycles",
			"Cycles from a pipeline flush to the next instruction commit.",
			obs.ExpBuckets(4, 2, 10)),
		FAQOccupancy: reg.Histogram("elf_faq_occupancy_blocks",
			"Fetch address queue occupancy in blocks, sampled periodically.",
			obs.LinearBuckets(0, 4, 9)),
		CoupledResidency: reg.Histogram("elf_coupled_residency_cycles",
			"Cycles spent in coupled mode per coupled period.",
			obs.ExpBuckets(8, 2, 12)),
		ResyncDrain: reg.Histogram("elf_resync_drain_cycles",
			"Cycles from resync-prepare to the coupled->decoupled switch.",
			obs.ExpBuckets(1, 2, 10)),
	}
}

// RunOneTraced is RunOne plus a cycle-level trace of the measurement
// window: a Tracer capturing up to maxEvents instruction records is
// attached after warmup (alongside p.Probe, if set) and returned for
// export via Tracer.WritePipeview or WriteChromeTrace.
func RunOneTraced(ctx context.Context, e *workload.Entry, cfg pipeline.Config, p Params, maxEvents int) (Result, *pipeline.Tracer, error) {
	if err := p.Validate(); err != nil {
		return Result{}, nil, err
	}
	m, err := pipeline.New(cfg, e.Program())
	if err != nil {
		return Result{}, nil, err
	}
	if p.Warmup > 0 {
		if _, err := m.RunContext(ctx, p.Warmup); err != nil {
			return Result{}, nil, err
		}
		m.ResetStats()
	}
	if p.Probe != nil {
		m.AttachProbe(p.Probe)
	}
	tr := pipeline.NewTracer(maxEvents)
	m.AttachTracer(tr)
	st, err := m.RunContext(ctx, p.Measure)
	if err != nil {
		return Result{}, nil, err
	}
	r := resultFrom(e, cfg, m, st)
	return r, tr, nil
}

// Stage thread ids within a pipeline trace's one Chrome process.
const (
	tidFetch   = 1
	tidDecode  = 2
	tidBackend = 3
)

// WriteChromeTrace renders tr's recorded window through obs's Trace Event
// encoder, so a pipeline window opens on a real timeline (Perfetto,
// chrome://tracing) instead of the text pipeview. One simulated cycle maps
// to one microsecond of trace time, and the stages render as three
// threads (fetch, decode, backend) under one process. Each instruction
// contributes up to three complete ("X") slices — time in fetch
// (fetched→decoded), in decode (decoded→renamed) and in the back end
// (renamed→retired) — tagged with its sequence number, class, and
// wrong-path/coupled/squashed flags. Squashed instructions keep whatever
// slices they earned before dying, plus an instant mark where they end.
func WriteChromeTrace(w io.Writer, tr *pipeline.Tracer) error {
	tr.CloseSquashed()
	events := []obs.ChromeEvent{{
		Name: "process_name", Ph: "M", PID: 0, TID: 0,
		Args: map[string]any{"name": "elfetch pipeline"},
	}}
	for i, name := range []string{"fetch", "decode", "backend"} {
		events = append(events, obs.ChromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: tidFetch + i,
			Args: map[string]any{"name": name},
		})
	}
	recs := tr.Events()
	for i := range recs {
		e := &recs[i]
		name := fmt.Sprintf("%v %v", e.Class, e.PC)
		args := map[string]any{
			"seq":     e.Seq,
			"fetchID": e.FetchID,
		}
		if e.WrongPath {
			args["wrongPath"] = true
		}
		if e.Coupled {
			args["coupled"] = true
		}
		if e.Squashed {
			args["squashed"] = true
		}
		slice := func(tid int, start, end uint64) {
			if start == 0 || end < start {
				return
			}
			events = append(events, obs.ChromeEvent{
				Name: name, Cat: traceCategory(e), Ph: "X",
				TS: start, Dur: max(end-start, 1), PID: 0, TID: tid, Args: args,
			})
		}
		slice(tidFetch, e.Fetched, e.Decoded)
		slice(tidDecode, e.Decoded, e.Renamed)
		slice(tidBackend, e.Renamed, e.Retired)
		if e.Squashed {
			// The squash mark sits on the deepest stage reached, at the
			// newest timestamp the record holds.
			tid := tidFetch
			switch {
			case e.Renamed != 0:
				tid = tidBackend
			case e.Decoded != 0:
				tid = tidDecode
			}
			events = append(events, obs.ChromeEvent{
				Name: "squash " + name, Cat: "squash", Ph: "i",
				TS: max(e.Fetched, e.Decoded, e.Renamed), PID: 0, TID: tid, Args: args,
			})
		}
	}
	return obs.EncodeChromeTrace(w, events)
}

// traceCategory tags slices for Perfetto's filter box.
func traceCategory(e *pipeline.TraceEvent) string {
	switch {
	case e.WrongPath:
		return "wrong-path"
	case e.Coupled:
		return "coupled"
	default:
		return "decoupled"
	}
}
