package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"elfetch/internal/core"
	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
	"elfetch/internal/workload"
)

// The reference pins the simulated outcome of every cell the benchmark
// can send: the two grids and the whole serve-mixed universe. The
// simulator is deterministic, so a run whose (Committed, Cycles) differs
// from the reference for any cell is wrong, whatever its speed.
// Regenerate it only when a change alters simulated behaviour on
// purpose:
//
//	bash perfbench/run.sh -record-reference perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// refCell is one reference row.
type refCell struct {
	Workload  string `json:"workload"`
	Config    string `json:"config"`
	Warmup    uint64 `json:"warmup"`
	Measure   uint64 `json:"measure"`
	Committed uint64 `json:"committed"`
	Cycles    uint64 `json:"cycles"`
}

// outcome is what the benchmark checks per cell.
type outcome struct{ Committed, Cycles uint64 }

// cellID names a cell by the fields that identify it in this benchmark:
// every config the benchmark sends is DefaultConfig with one of the
// four front ends, so the config name identifies it.
func cellID(c eval.Cell) string {
	return refCell{Workload: c.Workload, Config: c.Config.Name(), Warmup: c.Warmup, Measure: c.Measure}.id()
}

func (r refCell) id() string {
	return fmt.Sprintf("%s|%s|%d|%d", r.Workload, r.Config, r.Warmup, r.Measure)
}

// reference maps cellID to the recorded outcome.
type reference map[string]outcome

func loadReference() (reference, error) {
	var rows []refCell
	if err := json.Unmarshal(referenceJSON, &rows); err != nil {
		return nil, fmt.Errorf("decoding reference.json: %w", err)
	}
	ref := make(reference, len(rows))
	for _, r := range rows {
		ref[r.id()] = outcome{r.Committed, r.Cycles}
	}
	return ref, nil
}

// check reports whether a result matches the reference for the cell
// with this cellID.
func (ref reference) check(id string, committed, cycles uint64) error {
	want, ok := ref[id]
	if !ok {
		return fmt.Errorf("no reference for cell %s", id)
	}
	if got := (outcome{committed, cycles}); got != want {
		return fmt.Errorf("cell %s: got committed=%d cycles=%d, reference committed=%d cycles=%d",
			id, committed, cycles, want.Committed, want.Cycles)
	}
	return nil
}

// gridConfigs are the four front ends every grid and every serve-mixed
// cell runs under.
func gridConfigs() []pipeline.Config {
	base := pipeline.DefaultConfig()
	return []pipeline.Config{base, base.NoDCF(), base.WithVariant(core.UELF), base.WithVariant(core.LELF)}
}

// universe is every cell serve-mixed may request: each registered
// workload under each front end at a handful of tiny run lengths. A
// seed picks the hot set, the store-only set and the fresh cells from
// it, so any seed's stream is covered by the reference.
func universe() []eval.Cell {
	var names []string
	for _, e := range workload.All() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	var out []eval.Cell
	for _, n := range names {
		for _, cfg := range gridConfigs() {
			for _, warm := range []uint64{0, 500} {
				for _, meas := range []uint64{200, 400, 600, 800, 1000} {
					out = append(out, eval.Cell{Workload: n, Config: cfg, Warmup: warm, Measure: meas})
				}
			}
		}
	}
	return out
}

// recordReference simulates every referenced cell in-process and writes
// the reference file, one cell per line.
func recordReference(ctx context.Context, path string, workers int) error {
	cells := universe()
	for _, g := range grids {
		cells = append(cells, g.cells()...)
	}
	rows := make([]refCell, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				r, err := eval.RunCell(ctx, c, nil)
				errs[i] = err
				rows[i] = refCell{c.Workload, c.Config.Name(), c.Warmup, c.Measure, r.Committed, r.Cycles}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range rows {
		if errs[i] != nil {
			return fmt.Errorf("cell %s: %w", cellID(cells[i]), errs[i])
		}
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		b.Write(line)
		if i < len(rows)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
