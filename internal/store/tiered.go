package store

import (
	"sync/atomic"
)

// Tiered chains a front tier over a back tier — in production a worker's
// local Disk over its coordinator's Peer. Reads consult the front first;
// a back-tier hit is promoted (copied) into the front so repeats stay
// local. Writes go to both tiers. Tiered does not coalesce concurrent
// misses: the scheduler in front of every store already runs one
// simulation per key.
type Tiered struct {
	front Store
	back  Store

	closed atomic.Bool
}

// NewTiered layers front over back. Both are owned by the returned store:
// Close closes them (front first).
func NewTiered(front, back Store) *Tiered {
	return &Tiered{front: front, back: back}
}

// Get consults the front tier, then the back tier, promoting back-tier
// hits into the front. Tier errors degrade to misses at that tier: the
// other tier is still consulted, and the first error (if any) is
// reported alongside whatever was found.
func (t *Tiered) Get(key string) ([]byte, bool, error) {
	if t.closed.Load() {
		return nil, false, errClosed("tiered")
	}
	v, ok, ferr := t.front.Get(key)
	if ok {
		return v, true, nil
	}
	v, ok, berr := t.back.Get(key)
	if ok {
		// Promote. A failed promotion does not fail the read.
		_ = t.front.Put(key, v)
		return v, true, ferr
	}
	if ferr != nil {
		return nil, false, ferr
	}
	return nil, false, berr
}

// Put writes value into both tiers. The back tier (durable) error wins;
// a front-tier failure alone does not fail the write.
func (t *Tiered) Put(key string, value []byte) error {
	if t.closed.Load() {
		return errClosed("tiered")
	}
	ferr := t.front.Put(key, value)
	if err := t.back.Put(key, value); err != nil {
		return err
	}
	return ferr
}

// Stats concatenates per-tier snapshots, front first.
func (t *Tiered) Stats() []TierStats {
	return append(t.front.Stats(), t.back.Stats()...)
}

// Compact compacts both tiers.
func (t *Tiered) Compact() error {
	ferr := t.front.Compact()
	if err := t.back.Compact(); err != nil {
		return err
	}
	return ferr
}

// Close closes both tiers, front first, returning the first error.
func (t *Tiered) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	ferr := t.front.Close()
	if err := t.back.Close(); err != nil {
		return err
	}
	return ferr
}

var _ Store = (*Tiered)(nil)
