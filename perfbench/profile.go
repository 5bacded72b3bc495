package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// CPU attribution. Each profile sample is charged to the innermost
// repro/internal/<module> frame on its stack, so runtime work a module
// causes (allocation, memclr, GC assists, strconv) counts against that
// module. Frames of the benchmark's own package charge "bench"; samples
// with no program frame at all (background GC workers, the scheduler)
// charge the runtime background row. Nothing is dropped: the rows sum to
// the profile's total CPU.

const (
	benchModule  = "bench"
	otherModule  = "other"
	gcBackground = "runtime.gc_bg"
)

// cpuModules are the ledger's CPU rows; program modules not listed here
// charge otherModule.
var cpuModules = []string{
	"adio", "cc", "climate", "cluster", "fabric", "layout", "mpi", "ncfile",
	"obs", "pfs", "report", "sim", "workload", benchModule, otherModule,
}

// moduleOf names the module a function belongs to: its directory under
// repro/internal (nested packages charge their top module), benchModule
// for package main, "" for the runtime and the standard library.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if end := strings.IndexAny(rest, "/."); end >= 0 {
			rest = rest[:end]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m
			}
		}
		return otherModule
	}
	if strings.HasPrefix(fn, "main.") {
		return benchModule
	}
	return ""
}

// chargeTo returns the ledger row for a stack given innermost frame first.
func chargeTo(frames []string) string {
	for _, f := range frames {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return gcBackground
}

// cpuSample is one decoded profile sample.
type cpuSample struct {
	frames []string // function names, innermost first, inlined calls expanded
	count  int64    // samples
	ns     int64    // CPU nanoseconds
}

// cpuLedger is CPU nanoseconds per ledger row, plus the profile totals.
type cpuLedger struct {
	rows             map[string]int64
	samples, totalNS int64
}

func (l *cpuLedger) add(samples []cpuSample) {
	if l.rows == nil {
		l.rows = make(map[string]int64)
	}
	for _, s := range samples {
		l.rows[chargeTo(s.frames)] += s.ns
		l.samples += s.count
		l.totalNS += s.ns
	}
}

// profiled runs fn under the CPU profiler and returns the gzipped profile.
func profiled(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

var errProto = errors.New("profile: malformed protobuf")

// fields calls fn for each field of a protobuf message: varint and fixed
// fields with their value and nil bytes, length-delimited ones with their
// (non-nil) bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, which the
// encoder may write packed (bytes) or one per field (v).
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile (profile.proto) into samples.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = make(map[uint64][]uint64) // location id → function ids, innermost first
		funcName    = make(map[uint64]uint64)   // function id → string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errProto
		}
		return strs[i], nil
	}
	countIdx, nsIdx := -1, -1
	for i, t := range sampleTypes {
		switch name, _ := str(t); name {
		case "samples":
			countIdx = i
		case "cpu":
			nsIdx = i
		}
	}
	if countIdx < 0 || nsIdx < 0 {
		return nil, fmt.Errorf("profile: not a CPU profile (sample types %v)", sampleTypes)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) != len(sampleTypes) {
			return nil, errProto
		}
		cs := cpuSample{count: int64(s.vals[countIdx]), ns: int64(s.vals[nsIdx])}
		for _, loc := range s.locs {
			fns, ok := locLines[loc]
			if !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
			for _, f := range fns {
				name, err := str(funcName[f])
				if err != nil {
					return nil, err
				}
				cs.frames = append(cs.frames, name)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
