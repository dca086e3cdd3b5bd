package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stage shares come from a runtime/pprof CPU profile: every sample whose
// stack passes through (*Machine).Cycle is charged to the stage of the
// frame Cycle called. The profile is decoded here from its protobuf
// wire form (only the fields the shares need), so the benchmark needs
// no profile tooling at run time.

// stageOf maps the functions (*Machine).Cycle calls to the stages the
// benchmark reports. Anything else Cycle spends time in (the clock
// update, the watchdog, the probe hook and Cycle's own body) is "other".
var stageOf = map[string]string{
	"elfetch/internal/pipeline.(*Machine).fetch":             "fetch",
	"elfetch/internal/frontend.(*DCF).Cycle":                 "dcf",
	"elfetch/internal/pipeline.(*Machine).resyncStep":        "resync",
	"elfetch/internal/pipeline.(*Machine).decode":            "decode",
	"elfetch/internal/pipeline.(*Machine).rename":            "rename",
	"elfetch/internal/backend.(*Backend).Cycle":              "backend",
	"elfetch/internal/pipeline.(*Machine).handleResolutions": "backend",
	"elfetch/internal/backend.(*Backend).Commit":             "retire",
	"elfetch/internal/pipeline.(*Machine).retire":            "retire",
	"elfetch/internal/pipeline.(*Machine).prefetchStep":      "prefetch",
}

// stages lists the reported stages in report order.
var stages = []string{"fetch", "dcf", "resync", "decode", "rename", "backend", "retire", "prefetch", "other"}

const cycleFunc = "elfetch/internal/pipeline.(*Machine).Cycle"

// stageSamples adds one CPU profile's samples under (*Machine).Cycle to
// counts, by stage, weighted by sampled CPU time.
func stageSamples(profile []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		// Frames run leaf first; the frame just before Cycle is the
		// callee that was running (or its caller chain's top).
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		for i, f := range frames {
			if f != cycleFunc {
				continue
			}
			st := "other"
			if i > 0 {
				if s, ok := stageOf[frames[i-1]]; ok {
					st = s
				}
			}
			counts[st] += s.value
			break
		}
	}
	return nil
}

// profileData is the decoded subset of a pprof Profile message.
type profileData struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

// decodeProfile reads Profile fields sample (2), location (4), function
// (5) and string_table (6).
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			var vals []int64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return packed(v, m, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(v, m, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (msg nil) or its length-delimited
// payload (msg non-nil, possibly empty). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field in either encoding: one value
// (v) or a packed run (msg).
func packed(v uint64, msg []byte, add func(uint64)) error {
	if msg == nil {
		add(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		msg = msg[n:]
	}
	return nil
}

// stageShares turns stage sample weights into fractions of the time
// under (*Machine).Cycle (all zero when no sample landed there).
func stageShares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	out := map[string]float64{}
	for _, st := range stages {
		if total > 0 {
			out[st] = float64(counts[st]) / float64(total)
		} else {
			out[st] = 0
		}
	}
	return out
}
