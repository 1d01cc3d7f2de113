package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// The traced run takes a CPU profile with runtime/pprof and labels every
// simulation with its scheme. This file decodes the profile (gzipped
// profile.proto) with just enough protobuf to attribute samples to the
// ooo pipeline stages, so the stage shares need no change to the
// simulator and no tool outside the standard library.

// stageFuncs maps each reported stage to the ooo method that implements it.
var stageFuncs = []struct{ stage, fn string }{
	{"fetch", "ooo.(*Core).fetchStage"},
	{"rename", "ooo.(*Core).renameStage"},
	{"issue", "ooo.(*Core).issueStage"},
	{"complete", "ooo.(*Core).completeStage"},
	{"retire", "ooo.(*Core).retireStage"},
}

// Functions whose cumulative CPU time the per-layer metrics divide by the
// call counts the traced round takes.
const (
	fnPredict = "bpu.(*TAGE).Predict"
	fnUpdate  = "bpu.(*TAGE).Update"
	fnHooks   = "core.(*ACB)."
)

// profSample is one decoded sample: its stack as function names, its
// labels and its last value (CPU nanoseconds).
type profSample struct {
	funcs  []string
	labels map[string]string
	value  int64
}

// profileCPU sums CPU nanoseconds per value of label key: under "" the
// total, and under each pattern the samples whose stack holds a function
// whose name contains it (each sample counted once per pattern).
func profileCPU(path, key string, patterns []string) (map[string]map[string]float64, error) {
	samples, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]float64{}
	for _, s := range samples {
		lv, ok := s.labels[key]
		if !ok {
			continue
		}
		if out[lv] == nil {
			out[lv] = map[string]float64{}
		}
		out[lv][""] += float64(s.value)
		for _, pat := range patterns {
			for _, f := range s.funcs {
				if strings.Contains(f, pat) {
					out[lv][pat] += float64(s.value)
					break
				}
			}
		}
	}
	return out, nil
}

// layerPatterns are the functions every profiled workload attributes.
func layerPatterns() []string {
	pats := []string{fnPredict, fnUpdate, fnHooks}
	for _, st := range stageFuncs {
		pats = append(pats, st.fn)
	}
	return pats
}

// readProfile decodes a gzipped profile.proto file.
func readProfile(path string) ([]profSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	buf, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}

	type rawSample struct {
		locs   []uint64
		vals   []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		strs    []string
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids
		fnName  = map[uint64]int64{}    // function id -> name string index
	)
	err = fields(buf, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				case 3:
					var k, sv int64
					fields(b, func(num, _ int, v uint64, _ []byte) error {
						switch num {
						case 1:
							k = int64(v)
						case 2:
							sv = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, [2]int64{k, sv})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.vals) > 0 {
			ps.value = s.vals[len(s.vals)-1]
		}
		for _, l := range s.labels {
			ps.labels[str(l[0])] = str(l[1])
		}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				ps.funcs = append(ps.funcs, str(fnName[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks the top-level fields of one protobuf message, passing each
// field's number, wire type, and varint value or length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may be packed.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
