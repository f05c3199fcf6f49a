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

// Modules the CPU profile is charged to. A sample goes to the innermost
// frame of a repro/internal/<module> package; one with no such frame
// goes to "bench" when the benchmark's own code is on the stack and to
// "go_runtime" (GC, scheduler, runtime-owned goroutines) otherwise.
// Repository modules not listed are pooled as "other".
var chargedModules = []string{
	"sim", "memory", "msgpass", "stm", "obs", "ckpt", "serve", "apps", "core",
	"other", "bench", "go_runtime",
}

// moduleOf returns the module a function name is charged to, and
// whether the name is a repository frame at all.
func moduleOf(fn string) (string, bool) {
	const repo = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, repo); ok {
		end := strings.IndexAny(rest, "/.")
		if end < 0 {
			end = len(rest)
		}
		mod := rest[:end]
		for _, m := range chargedModules {
			if m == mod {
				return mod, true
			}
		}
		return "other", true
	}
	return "", false
}

// chargeStacks charges each weighted stack (function names, innermost
// first) to one module and returns each module's share of the total
// weight. Every module in chargedModules is present; the shares sum
// to 1 when any weight was recorded.
func chargeStacks(stacks [][]string, weights []int64) map[string]float64 {
	byMod := map[string]int64{}
	var total int64
	for i, st := range stacks {
		mod := "go_runtime"
		for _, fn := range st {
			if m, ok := moduleOf(fn); ok {
				mod = m
				break
			}
			if strings.HasPrefix(fn, "main.") {
				mod = "bench"
			}
		}
		byMod[mod] += weights[i]
		total += weights[i]
	}
	out := make(map[string]float64, len(chargedModules))
	for _, m := range chargedModules {
		if total > 0 {
			out[m] = float64(byMod[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// decodeProfile reads a gzipped profile.proto as runtime/pprof writes
// it and returns each sample's stack (function names, innermost first,
// inlined frames expanded) with its last value (CPU nanoseconds for a
// CPU profile).
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		val  int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	err = eachField(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.val = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					stacks[i] = append(stacks[i], strs[idx])
				}
			}
		}
		weights[i] = s.val
	}
	return stacks, weights, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint's value, b a length-delimited field's bytes.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (b nil), a packed run otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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
