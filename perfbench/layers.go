package main

// Layer attribution of a CPU profile. The benchmark starts runtime/pprof
// around one traced iteration, decodes the gzip'd profile.proto itself (the
// standard library has a writer but no reader), and charges every sample to
// one bucket: the simulator module its leaf frame belongs to, or the Go
// runtime split into scheduling, garbage collection and the rest.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one profile sample: its call stack, leaf first (inlined frames
// expanded), and the CPU time it stands for.
type sample struct {
	stack []string
	cpuNs int64
}

// Buckets, in report order. Every sample lands in exactly one, so the
// buckets sum to the profile total.
var buckets = []string{
	"sim", "fw", "fabric", "nal", "core", "oskernel", "seastar", "mpi", "machine",
	"driver", "runtime.sched", "runtime.gc", "runtime.other", "other",
}

// layerPkgs maps the last element of a portals3/... import path to its
// bucket. Packages not listed (topo, model, telemetry, trace, wire,
// flightrec, ...) fall into "other". The benchmark's own frames are named
// main.* in its binary and portals3/perfbench.* in its test binary.
var layerPkgs = map[string]string{
	"sim": "sim", "fw": "fw", "fabric": "fabric", "nal": "nal", "core": "core",
	"oskernel": "oskernel", "seastar": "seastar", "mpi": "mpi", "machine": "machine",
	"experiments": "driver", "netpipe": "driver", "perfbench": "driver",
}

// gcFuncs and schedFuncs classify runtime frames (names without the
// "runtime." prefix). A runtime sample is GC work when any frame of its
// runtime segment is a collector entry point, scheduling when any is a
// park/wake/lock path, and "other" (allocation, memmove, maps, ...)
// otherwise.
var gcFuncs = map[string]bool{
	"_GC": true, "gcBgMarkWorker": true, "gcDrain": true, "gcDrainN": true,
	"gcAssistAlloc": true, "gcAssistAlloc1": true, "gcStart": true, "gcMarkDone": true,
	"gcMarkTermination": true, "scanobject": true, "scanblock": true, "scanstack": true,
	"greyobject": true, "markroot": true, "bgsweep": true, "bgscavenge": true,
	"sweepone": true, "wbBufFlush": true, "wbBufFlush1": true, "GC": true,
	"deductSweepCredit": true, "(*mheap).reclaim": true, "(*sweepLocked).sweep": true,
	"(*gcWork).balance": true, "gcFlushBgCredit": true, "markrootSpans": true,
}

var schedFuncs = map[string]bool{
	"gopark": true, "goparkunlock": true, "goready": true, "ready": true, "park_m": true,
	"schedule": true, "findRunnable": true, "mcall": true, "gogo": true,
	"casgstatus": true, "chanrecv": true, "chansend": true, "selectgo": true,
	"closechan": true, "semacquire1": true, "semrelease1": true, "notesleep": true,
	"notewakeup": true, "wakep": true, "startm": true, "stopm": true, "handoffp": true,
	"runqget": true, "runqput": true, "runqgrab": true, "stealWork": true,
	"goschedImpl": true, "gosched_m": true, "goexit0": true, "newproc": true,
	"newproc1": true, "execute": true, "lock2": true, "unlock2": true,
	"futexsleep": true, "futexwakeup": true, "futex": true, "usleep": true,
	"osyield": true, "procyield": true, "netpoll": true, "checkTimers": true,
	"resetspinning": true, "entersyscall": true, "exitsyscall": true, "sysmon": true,
	"mPark": true, "goyield": true,
}

// funcPkg returns the import path of a symbol name such as
// "portals3/internal/fw.(*NIC).rx" or "sort.Slice[...]".
func funcPkg(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// bucketOf charges a stack to a bucket. The leaf frame decides, except that
// standard-library frames outside the runtime (sort, container/heap, sync,
// fmt, ...) are charged to their nearest caller that is runtime or
// program code.
func bucketOf(stack []string) string {
	for i, fn := range stack {
		pkg := funcPkg(fn)
		switch {
		case isRuntimePkg(pkg):
			return runtimeClass(stack[i:])
		case pkg == "main":
			return "driver"
		case strings.HasPrefix(pkg, "portals3/"):
			if b, ok := layerPkgs[pkg[strings.LastIndexByte(pkg, '/')+1:]]; ok {
				return b
			}
			return "other"
		}
	}
	return "other"
}

// runtimeClass splits a runtime sample by the runtime frames at its leaf
// end (up to the first non-runtime caller).
func runtimeClass(stack []string) string {
	seg := stack
	for i, fn := range stack {
		if !isRuntimePkg(funcPkg(fn)) {
			seg = stack[:i]
			break
		}
	}
	sched := false
	for _, fn := range seg {
		name := fn[strings.LastIndexByte(fn, '/')+1:]
		name = name[strings.IndexByte(name, '.')+1:]
		if gcFuncs[name] {
			return "runtime.gc"
		}
		sched = sched || schedFuncs[name]
	}
	if sched {
		return "runtime.sched"
	}
	return "runtime.other"
}

// attribute sums CPU nanoseconds per bucket.
func attribute(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(buckets))
	for _, b := range buckets {
		out[b] = 0
	}
	for _, s := range samples {
		out[bucketOf(s.stack)] += s.cpuNs
	}
	return out
}

// parseProfile decodes a gzip-compressed pprof CPU profile into samples
// valued in CPU nanoseconds.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type valueType struct{ typ, unit int64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		types   []valueType
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt valueType
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			types = append(types, vt)
			return err
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, pb)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, pb); err != nil {
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
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(lb, func(f int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := -1
	for i, t := range types {
		if str(t.typ) == "cpu" && str(t.unit) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample lacks its cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				stack = append(stack, str(fnName[fn]))
			}
		}
		out = append(out, sample{stack: stack, cpuNs: s.values[vi]})
	}
	return out, nil
}

// walkFields iterates a protobuf message, passing each field's number and
// either its varint value or its length-delimited bytes. Fixed-width fields
// are skipped; profile.proto's fields used here are varints or messages.
func walkFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (payload) or not.
func appendPacked(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := binary.Uvarint(payload)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		payload = payload[n:]
	}
	return nil
}
