package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"elfetch/internal/eval"
	"elfetch/internal/pipeline"
	"elfetch/internal/sched"
	"elfetch/internal/store"
)

// TestCellLookup covers the three answers GET /v1/cells/{key} can give:
// a miss (404, "not here, simulate it yourself"), a hit from the
// scheduler's result cache on a store-less worker, and a hit straight
// from the persistent store on a server whose scheduler never ran the
// cell.
func TestCellLookup(t *testing.T) {
	srv, _ := testServer(t)

	rec, body := doJSON(t, srv, "GET", "/v1/cells/"+sched.Key("nothing"), nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("lookup on empty server: %d %s", rec.Code, rec.Body.String())
	}
	if errObj, ok := body["error"].(map[string]any); !ok || errObj["code"] != "not_found" {
		t.Fatalf("want not_found envelope, got %v", body)
	}

	// Cache-backed: POST the cell, then fetch it back by the same content
	// address the server keyed it under. The lookup must reproduce the
	// POST response.
	c := eval.Cell{
		Workload: "641.leela_s",
		Config:   pipeline.DefaultConfig(),
		Warmup:   1_000,
		Measure:  4_000,
	}
	rec, ran := doJSON(t, srv, "POST", "/v1/cells", c)
	if rec.Code != http.StatusOK {
		t.Fatalf("run cell: %d %s", rec.Code, rec.Body.String())
	}
	rec, got := doJSON(t, srv, "GET", "/v1/cells/"+sched.Key("cell", c), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cache-backed lookup: %d %s", rec.Code, rec.Body.String())
	}
	if got["ipc"] != ran["ipc"] || got["committed"] != ran["committed"] {
		t.Fatalf("lookup diverged from run:\nrun:    %v\nlookup: %v", ran, got)
	}

	// Store-backed: a server holding only a pre-filled store (its
	// scheduler has run nothing) serves the stored bytes verbatim.
	disk, err := store.Open(store.DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	stored := eval.Result{Workload: "641.leela_s", Config: "DCF", IPC: 1.25, Committed: 42}
	b, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	key := sched.Key("cell", c)
	if err := disk.Put(key, b); err != nil {
		t.Fatal(err)
	}
	s2 := sched.New(sched.Config{Workers: 1, QueueDepth: 8})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	srv2 := newServer(s2, eval.Params{Warmup: 1_000, Measure: 4_000}, serverOptions{Store: disk})
	rec, got = doJSON(t, srv2, "GET", "/v1/cells/"+key, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("store-backed lookup: %d %s", rec.Code, rec.Body.String())
	}
	if got["ipc"] != 1.25 || got["committed"] != float64(42) {
		t.Fatalf("store-backed lookup returned %v, want the stored result", got)
	}
}
