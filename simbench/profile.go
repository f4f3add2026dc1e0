package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed protocol-buffer profiles that
// runtime/pprof writes (github.com/google/pprof, proto/profile.proto),
// covering only what bucketing CPU samples needs: sample values, location
// stacks, the functions on them and the string table.

// cpuSample is one CPU profile sample: its CPU time and its stack as
// function names, leaf first, with inlined frames expanded.
type cpuSample struct {
	nanos int64
	stack []string
}

var errProfile = errors.New("malformed profile")

// Field numbers from profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2

	valueTypeType = 1
)

// pbField is one decoded protocol-buffer field: a varint (or fixed-width
// integer) in num, or length-delimited bytes in data.
type pbField struct {
	tag  int
	wire int
	num  uint64
	data []byte
}

// pbFields splits a protocol-buffer message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProfile
			}
			f.num, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProfile
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProfile
			}
			f.num, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not, appending to dst.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.num), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// decodeProfile reads a CPU profile and returns its samples, each valued
// in CPU nanoseconds.
func decodeProfile(r io.Reader) ([]cpuSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var strs []string
	var types []uint64 // string index of each sample type
	var samples, locs, funcs [][]byte
	for _, f := range top {
		switch f.tag {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profSampleType:
			vt, err := pbFields(f.data)
			if err != nil {
				return nil, fmt.Errorf("profile: sample type: %w", err)
			}
			var t uint64
			for _, g := range vt {
				if g.tag == valueTypeType {
					t = g.num
				}
			}
			types = append(types, t)
		case profSample:
			samples = append(samples, f.data)
		case profLocation:
			locs = append(locs, f.data)
		case profFunction:
			funcs = append(funcs, f.data)
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	// The CPU value is the "cpu" sample type (nanoseconds); a profile
	// without one is read by its last value.
	valueIdx := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}

	names := map[uint64]string{}
	for _, b := range funcs {
		fs, err := pbFields(b)
		if err != nil {
			return nil, fmt.Errorf("profile: function: %w", err)
		}
		var id, name uint64
		for _, f := range fs {
			switch f.tag {
			case functionID:
				id = f.num
			case functionName:
				name = f.num
			}
		}
		names[id] = str(name)
	}

	frames := map[uint64][]string{} // location id -> names, innermost first
	for _, b := range locs {
		fs, err := pbFields(b)
		if err != nil {
			return nil, fmt.Errorf("profile: location: %w", err)
		}
		var id uint64
		var fr []string
		for _, f := range fs {
			switch f.tag {
			case locationID:
				id = f.num
			case locationLine:
				ls, err := pbFields(f.data)
				if err != nil {
					return nil, fmt.Errorf("profile: line: %w", err)
				}
				for _, l := range ls {
					if l.tag == lineFunctionID {
						fr = append(fr, names[l.num])
					}
				}
			}
		}
		frames[id] = fr
	}

	out := make([]cpuSample, 0, len(samples))
	for _, b := range samples {
		fs, err := pbFields(b)
		if err != nil {
			return nil, fmt.Errorf("profile: sample: %w", err)
		}
		var ids, vals []uint64
		for _, f := range fs {
			switch f.tag {
			case sampleLocationID:
				ids, err = pbInts(ids, f)
			case sampleValue:
				vals, err = pbInts(vals, f)
			}
			if err != nil {
				return nil, fmt.Errorf("profile: sample: %w", err)
			}
		}
		if valueIdx < 0 || valueIdx >= len(vals) {
			return nil, fmt.Errorf("profile: sample has %d values, want %d: %w", len(vals), len(types), errProfile)
		}
		s := cpuSample{nanos: int64(vals[valueIdx])}
		for _, id := range ids {
			s.stack = append(s.stack, frames[id]...)
		}
		out = append(out, s)
	}
	return out, nil
}

// layers are this repository's modules that get a self-time bucket of
// their own, named "<layer>.self_s".
var layers = []string{
	"workload", "node", "runner", "sim", "network", "core", "protocol",
	"cache", "rac", "directory", "delegate", "predictor", "addrtab",
	"msg", "mem", "cpu",
}

// Runtime buckets. A sample whose leaf is in the runtime goes to the first
// of these its runtime frames match, walking from the leaf to the first
// frame outside the runtime.
const (
	bucketMemclr = "runtime.memclr_s"
	bucketCopy   = "runtime.duffcopy_s"
	bucketGC     = "runtime.gc_s"
	bucketMalloc = "runtime.malloc_s"
	bucketSched  = "runtime.sched_s"
	bucketOther  = "other.self_s"
)

// runtimeFrames maps runtime function-name prefixes to their bucket.
var runtimeFrames = []struct {
	prefix, bucket string
}{
	{"runtime.gcBgMarkWorker", bucketGC}, {"runtime.gcDrain", bucketGC},
	{"runtime.gcAssist", bucketGC}, {"runtime.markroot", bucketGC},
	{"runtime.scanobject", bucketGC}, {"runtime.scanblock", bucketGC},
	{"runtime.scanstack", bucketGC}, {"runtime.scanframe", bucketGC},
	{"runtime.greyobject", bucketGC}, {"runtime.gcMark", bucketGC},
	{"runtime.gcStart", bucketGC}, {"runtime.gcSweep", bucketGC},
	{"runtime.bgsweep", bucketGC}, {"runtime.sweepone", bucketGC},
	{"runtime.(*sweepLocked)", bucketGC}, {"runtime.(*mspan).sweep", bucketGC},
	{"runtime.bgscavenge", bucketGC}, {"runtime.(*scavengerState)", bucketGC},
	{"runtime.gcWriteBarrier", bucketGC}, {"runtime.wbBuf", bucketGC},
	{"runtime.bulkBarrier", bucketGC}, {"runtime.(*gcWork)", bucketGC},
	{"runtime.stopTheWorld", bucketGC}, {"runtime.startTheWorld", bucketGC},
	{"runtime._GC", bucketGC},

	{"runtime.mallocgc", bucketMalloc}, {"runtime.newobject", bucketMalloc},
	{"runtime.makeslice", bucketMalloc}, {"runtime.growslice", bucketMalloc},
	{"runtime.makemap", bucketMalloc}, {"runtime.newarray", bucketMalloc},
	{"runtime.(*mcache)", bucketMalloc}, {"runtime.(*mcentral)", bucketMalloc},
	{"runtime.(*mheap)", bucketMalloc}, {"runtime.nextFreeFast", bucketMalloc},
	{"runtime.heapSetType", bucketMalloc}, {"runtime.rawstring", bucketMalloc},
	{"runtime.rawbyteslice", bucketMalloc}, {"runtime.convT", bucketMalloc},

	{"runtime.schedule", bucketSched}, {"runtime.findRunnable", bucketSched},
	{"runtime.park_m", bucketSched}, {"runtime.gopark", bucketSched},
	{"runtime.goready", bucketSched}, {"runtime.ready", bucketSched},
	{"runtime.lock", bucketSched}, {"runtime.unlock", bucketSched},
	{"runtime.futex", bucketSched}, {"runtime.note", bucketSched},
	{"runtime.sema", bucketSched}, {"runtime.stopm", bucketSched},
	{"runtime.startm", bucketSched}, {"runtime.wakep", bucketSched},
	{"runtime.mPark", bucketSched}, {"runtime.runq", bucketSched},
	{"runtime.stealWork", bucketSched}, {"runtime.usleep", bucketSched},
	{"runtime.osyield", bucketSched}, {"runtime.procyield", bucketSched},
	{"runtime.mcall", bucketSched}, {"runtime.chansend", bucketSched},
	{"runtime.chanrecv", bucketSched}, {"runtime.selectgo", bucketSched},
	{"runtime.entersyscall", bucketSched}, {"runtime.exitsyscall", bucketSched},
	{"runtime.checkTimers", bucketSched}, {"sync.", bucketSched},
	{"internal/sync.", bucketSched},
}

// funcPackage returns the import path of a profile function name such as
// "pccsim/internal/cache.(*Cache).Lookup" or "runtime.mallocgc".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || pkg == "sync" || pkg == "sync/atomic" ||
		strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "internal/sync")
}

// bucket names the self-time bucket a sample's stack (leaf first) belongs
// to. Block zeroing and block copies are runtime buckets wherever they are
// called from; other runtime leaves go to the GC, allocator or scheduler
// bucket their runtime callers identify. Any other leaf is charged to the
// first frame on the stack that is this repository's code (a pccsim
// package, or the benchmark's own main), so standard-library and runtime
// helpers such as map lookups count as their caller's self time. Modules
// without a bucket of their own, and the benchmark, go to other.self_s.
func bucket(stack []string) string {
	if len(stack) == 0 {
		return bucketOther
	}
	leaf := stack[0]
	switch {
	case strings.HasPrefix(leaf, "runtime.memclr") || leaf == "runtime.duffzero":
		return bucketMemclr
	case leaf == "runtime.duffcopy" || leaf == "runtime.memmove":
		return bucketCopy
	}
	i := 0
	for ; i < len(stack) && isRuntime(funcPackage(stack[i])); i++ {
		for _, rf := range runtimeFrames {
			if strings.HasPrefix(stack[i], rf.prefix) {
				return rf.bucket
			}
		}
	}
	for ; i < len(stack); i++ {
		pkg := funcPackage(stack[i])
		if pkg != "main" && pkg != "pccsim" && !strings.HasPrefix(pkg, "pccsim/") {
			continue
		}
		layer, _ := strings.CutPrefix(pkg, "pccsim/internal/")
		for _, l := range layers {
			if l == layer {
				return l + ".self_s"
			}
		}
		return bucketOther
	}
	return bucketOther
}

// selfBuckets are every bucket bucket can return.
func selfBuckets() []string {
	out := make([]string, 0, len(layers)+6)
	for _, l := range layers {
		out = append(out, l+".self_s")
	}
	return append(out, bucketMemclr, bucketCopy, bucketGC, bucketMalloc, bucketSched, bucketOther)
}

// bucketSeconds totals the samples' CPU seconds by bucket; every bucket
// of selfBuckets is present.
func bucketSeconds(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, b := range selfBuckets() {
		out[b] = 0
	}
	for _, s := range samples {
		out[bucket(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}
