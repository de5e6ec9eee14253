package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped protobuf that runtime/pprof writes (the
// profile.proto schema) with the standard library alone, and charges each
// CPU sample to a simulator layer.

// layers are the packages the per-layer metrics name, plus gc for the
// collector's background workers and other for everything else.
var layers = []string{"timeline", "network", "collective", "core", "et", "etgen", "topology", "cluster", "sweep", "search", "garnet", "gc", "other"}

// profSample is one CPU sample: its stack as function names, innermost
// first with inlined frames expanded, and its CPU time in nanoseconds.
type profSample struct {
	stack []string
	nanos int64
}

// layerOf names the layer a stack is charged to: the innermost frame in
// repro/internal/<pkg>, so runtime, fmt and map work is charged to the
// layer that called it. Stacks with no simulator frame belong to gc when
// a collector background worker runs them, else to other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return "gc"
		}
	}
	return "other"
}

// layerSelfTimes decodes a CPU profile and sums its samples' seconds per
// layer. Every layer is present, so the shares derived from it sum to 1.
func layerSelfTimes(gz []byte) (map[string]float64, error) {
	samples, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	self := make(map[string]float64, len(layers))
	for _, l := range layers {
		self[l] = 0
	}
	for _, s := range samples {
		self[layerOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return self, nil
}

// decodeProfile parses a gzipped profile.proto message into samples.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strs      []string
		types     []int64 // string index of each sample type
		locLines  = map[uint64][]uint64{}
		funcNames = map[uint64]int64{}
	)
	err = walkFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: its lines' function ids, innermost first
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	// CPU profiles carry samples/count and cpu/nanoseconds; use the latter.
	vi := len(types) - 1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if vi < 0 || vi >= len(s.values) {
			return nil, errors.New("profile: sample has no value for its CPU type")
		}
		ps := profSample{nanos: s.values[vi]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// walkFields calls f for each field of a protobuf message: v holds varint
// and fixed-width values, b the bytes of length-delimited ones.
func walkFields(msg []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
