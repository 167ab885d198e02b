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

// cpuLayers are the layers whose CPU share the traced run reports, in
// output order.
var cpuLayers = []string{
	"tarfs", "fsim", "oci", "sha256", "flate", "gc", "syscall",
	"frontend", "backend", "toolchain", "actioncache", "nethttp",
	"fleet", "remoteexec",
}

// profSample is one CPU-profile sample: its call stack as function
// names, leaf first, and its weight.
type profSample struct {
	stack []string
	value int64
}

// frameLayer names the layer a function belongs to, or "" when the
// frame decides nothing. Hashing, compression, garbage collection and
// system calls are broken out on their own; every other frame counts
// for the comtainer/internal package it is in.
func frameLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, "comtainer/internal/"):
		pkg := fn
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		if i := strings.Index(pkg, "."); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg
	case strings.HasPrefix(fn, "crypto/sha256.") || strings.Contains(fn, "/sha256."):
		return "sha256"
	case strings.HasPrefix(fn, "compress/flate."):
		return "flate"
	case strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.") ||
		strings.HasPrefix(fn, "runtime/internal/syscall."):
		return "syscall"
	case isGC(fn):
		return "gc"
	case strings.HasPrefix(fn, "net/http."):
		return "nethttp"
	}
	return ""
}

func isGC(fn string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range []string{"gc", "scan", "markroot", "greyobject", "bgsweep", "sweepone", "bgscavenge", "wbBuf", "(*mspan).sweep", "(*sweepLocked).sweep", "(*gcWork)"} {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// attribute charges each sample to the layer of the frame nearest its
// leaf that names one, and returns each layer's percentage of all
// sampled CPU time. Samples no frame decides count only in the total.
func attribute(samples []profSample) map[string]float64 {
	weight := map[string]int64{}
	var total int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if l := frameLayer(fn); l != "" {
				weight[l] += s.value
				break
			}
		}
	}
	out := map[string]float64{}
	for l, w := range weight {
		out[l] = 100 * float64(w) / float64(total)
	}
	return out
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it, reading only samples, locations, functions and the string table.
// The weight of a sample is its last value (CPU nanoseconds for a CPU
// profile).
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
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
		samples []rawSample
		locs    = map[uint64][]uint64{} // location -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function -> name string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed (b holds the
// varints) or not (v is the value).
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

var errProto = errors.New("profile: malformed protobuf")

// fields walks the top-level fields of a protobuf message. Varint
// fields reach fn with b nil; length-delimited fields with their
// bytes (non-nil, possibly empty). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errProto
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}
