package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"path"
	"strings"
)

// frame is one entry of a sampled stack: the function's qualified name and
// the base name of its source file.
type frame struct {
	fn   string
	file string
}

// stackSample is one profile sample: its stack, leaf first, and its weight.
type stackSample struct {
	stack  []frame
	weight int64
}

// cpuBuckets are the cpu_share.* layers, in report order.
var cpuBuckets = []string{
	"engine.operator", "engine.fuse", "engine.exchange", "engine.frame", "engine.netexchange",
	"engine.resources", "engine.checkpoint", "statebackend", "telemetry", "caps", "bench",
	"syscall_net", "go_runtime", "other",
}

var engineFileBucket = map[string]string{
	"task.go": "engine.operator", "operator.go": "engine.operator", "join.go": "engine.operator", "opsnapshot.go": "engine.operator",
	"fuse.go":        "engine.fuse",
	"exchange.go":    "engine.exchange",
	"frame.go":       "engine.frame",
	"netexchange.go": "engine.netexchange", "distrun.go": "engine.netexchange",
	"resources.go":  "engine.resources",
	"checkpoint.go": "engine.checkpoint", "rescale.go": "engine.checkpoint", "runtime.go": "engine.checkpoint", "fault.go": "engine.checkpoint",
}

var packageBucket = map[string]string{
	"capsys/internal/statebackend": "statebackend",
	"capsys/internal/telemetry":    "telemetry",
	"capsys/internal/metrics":      "telemetry",
	"capsys/internal/caps":         "caps",
	"capsys/internal/costmodel":    "caps",
	"capsys/internal/placement":    "caps",
}

// pkgOf is the import path of a qualified function name:
// "capsys/internal/engine.(*attempt).run" → "capsys/internal/engine".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isSyscall(fn string) bool {
	switch pkgOf(fn) {
	case "syscall", "internal/runtime/syscall", "runtime/internal/syscall":
		return true
	}
	return false
}

// bucketOf charges a stack to a layer: to syscall_net when its leaf is a
// system call, otherwise to the innermost frame that lies in this
// repository — so allocation, copying, reflection and gob time spent on
// behalf of engine/frame.go counts as the codec's, not the Go runtime's.
// A stack with no repository frame (background GC, scheduler, timers) is
// go_runtime.
func bucketOf(stack []frame) string {
	if len(stack) > 0 && isSyscall(stack[0].fn) {
		return "syscall_net"
	}
	for _, f := range stack {
		pkg := pkgOf(f.fn)
		switch {
		case pkg == "main" || pkg == "capsys/bench":
			return "bench"
		case pkg == "capsys/internal/engine":
			if b, ok := engineFileBucket[path.Base(f.file)]; ok {
				return b
			}
			return "other"
		case strings.HasPrefix(pkg, "capsys/"):
			if b, ok := packageBucket[pkg]; ok {
				return b
			}
			return "other"
		}
	}
	return "go_runtime"
}

// cpuShares turns samples into per-bucket shares that sum to 1.
func cpuShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(cpuBuckets))
	var total int64
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.weight)
		total += s.weight
	}
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] /= float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// --- pprof profile decoding ---------------------------------------------------
//
// A CPU profile is a gzipped protocol buffer (profile.proto). Only the
// fields that carry stacks are read: samples, locations, functions and the
// string table. Decoding it here keeps the benchmark to one process and to
// the standard library.

type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("profile: varint overflow")
}

// field reads the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func (p *protoBuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("profile: wire type %d", key&7)
	}
	return num, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return io.ErrUnexpectedEOF
	}
	p.b = p.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field given either form it may
// take on the wire: one value, or a packed run.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profLocation struct{ funcs []uint64 } // innermost (inlined) first

type profFunction struct{ name, file uint64 }

// parseProfile decodes a pprof CPU profile into stacks weighted by their
// last sample value (CPU nanoseconds).
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var samples []rawSample
	locations := map[uint64]profLocation{}
	functions := map[uint64]profFunction{}
	var strs []string
	p := protoBuf{body}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			sp := protoBuf{data}
			for len(sp.b) > 0 {
				n, v, d, err := sp.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case 2:
					s.values, err = repeatedVarint(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var loc profLocation
			lp := protoBuf{data}
			for len(lp.b) > 0 {
				n, v, d, err := lp.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					linep := protoBuf{d}
					for len(linep.b) > 0 {
						ln, lv, _, err := linep.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							loc.funcs = append(loc.funcs, lv)
						}
					}
				}
			}
			locations[id] = loc
		case 5: // Function
			var id uint64
			var f profFunction
			fp := protoBuf{data}
			for len(fp.b) > 0 {
				n, v, _, err := fp.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					f.name = v
				case 4:
					f.file = v
				}
			}
			functions[id] = f
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{weight: int64(s.values[len(s.values)-1])}
		for _, id := range s.locs {
			for _, fid := range locations[id].funcs {
				f := functions[fid]
				ss.stack = append(ss.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}
