package obs

// Chrome trace-event export: the one Trace Event JSON encoder in the
// module (the dialect chrome://tracing and Perfetto's legacy loader
// consume). Distributed spans render here directly: each fleet worker
// becomes one Chrome "process" (the coordinator is pid 0), spans become
// complete "X" slices, and a whole grid run — coordinator plus N workers
// — lands on one stitched timeline. Pipeline cycle windows reach the same
// encoder through internal/eval, which converts a Tracer's records into
// ChromeEvents, so one viewer renders both.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// ChromeEvent is one trace-event record. Only the fields the exporters
// emit.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// EncodeChromeTrace writes events as one Trace Event JSON object with a
// millisecond display unit.
func EncodeChromeTrace(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}

// WriteChromeTrace renders finished spans as Trace Event JSON. Workers
// map to Chrome processes: pid 0 is the coordinator (spans with no
// Worker), pids 1..N the workers in sorted-address order. Slice
// timestamps are microseconds relative to the earliest span start.
//
// With canonical=true the export is normalised for byte-diffing: spans
// sort by (trace, name, worker, id) and wall-clock timestamps are
// replaced by that rank, so two runs of the same sequentially-dispatched
// grid against an unseeded SpanLog produce identical bytes. Canonical
// output keeps the trace topology (ids, parents, workers) but says
// nothing about real latency.
func WriteChromeTrace(w io.Writer, spans []Span, canonical bool) error {
	ordered := append([]Span(nil), spans...)
	if canonical {
		sort.SliceStable(ordered, func(i, j int) bool {
			a, b := ordered[i], ordered[j]
			if a.Trace != b.Trace {
				return a.Trace.String() < b.Trace.String()
			}
			if a.Name != b.Name {
				return a.Name < b.Name
			}
			if a.Worker != b.Worker {
				return a.Worker < b.Worker
			}
			return a.ID.String() < b.ID.String()
		})
	} else {
		sort.SliceStable(ordered, func(i, j int) bool {
			return ordered[i].Start.Before(ordered[j].Start)
		})
	}

	// Worker -> Chrome pid, coordinator first, then sorted addresses.
	pids := map[string]int{"": 0}
	var addrs []string
	for _, s := range ordered {
		if s.Worker != "" {
			if _, ok := pids[s.Worker]; !ok {
				pids[s.Worker] = -1
				addrs = append(addrs, s.Worker)
			}
		}
	}
	sort.Strings(addrs)
	for i, a := range addrs {
		pids[a] = i + 1
	}

	var events []ChromeEvent
	name := func(pid int) string {
		if pid == 0 {
			return "coordinator"
		}
		return "worker " + addrs[pid-1]
	}
	for pid := 0; pid <= len(addrs); pid++ {
		events = append(events, ChromeEvent{
			Name: "process_name", Ph: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": name(pid)},
		})
	}

	var epoch time.Time
	for _, s := range ordered {
		if !s.Start.IsZero() && (epoch.IsZero() || s.Start.Before(epoch)) {
			epoch = s.Start
		}
	}
	for i, s := range ordered {
		args := map[string]any{
			"trace": s.Trace.String(),
			"span":  s.ID.String(),
		}
		if !s.Parent.IsZero() {
			args["parent"] = s.Parent.String()
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		for _, a := range s.Attrs {
			args["attr."+a.Name] = a.Value
		}
		ts := uint64(i) * 2
		dur := uint64(1)
		if !canonical {
			ts = uint64(s.Start.Sub(epoch).Microseconds())
			if d := s.End.Sub(s.Start).Microseconds(); d > 0 {
				dur = uint64(d)
			}
		}
		cat := "span"
		if s.Err != "" {
			cat = "error"
		}
		events = append(events, ChromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS: ts, Dur: dur, PID: pids[s.Worker], TID: 1, Args: args,
		})
	}
	return EncodeChromeTrace(w, events)
}

// WriteSpansJSON dumps finished spans as a JSON array — the raw form
// `elfview -spans` re-reads for Chrome conversion.
func WriteSpansJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spans)
}

// ReadSpansJSON parses a WriteSpansJSON dump.
func ReadSpansJSON(r io.Reader) ([]Span, error) {
	var spans []Span
	if err := json.NewDecoder(r).Decode(&spans); err != nil {
		return nil, fmt.Errorf("obs: decoding span dump: %w", err)
	}
	return spans, nil
}
