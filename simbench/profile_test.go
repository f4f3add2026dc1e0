package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pbWriter encodes the protocol-buffer subset the test profiles need.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(tag int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(tag)<<3)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(tag int, b []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(tag)<<3|2)
	w.b = binary.AppendUvarint(w.b, uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(tag int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(tag, p)
}

func (w *pbWriter) msg(tag int, build func(*pbWriter)) {
	var m pbWriter
	build(&m)
	w.bytes(tag, m.b)
}

// handProfile encodes a CPU profile in which location i+1 has the frames
// locs[i] (innermost inlined function first) and each sample is a list of
// location ids, leaf first, with its CPU nanoseconds. Odd samples use the
// unpacked encoding of repeated fields, even ones the packed encoding.
func handProfile(t *testing.T, locs [][]string, samples [][]uint64, nanos []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	fnID := map[string]uint64{}
	var p pbWriter
	p.msg(profSampleType, func(m *pbWriter) { m.varint(valueTypeType, 1); m.varint(2, 2) })
	p.msg(profSampleType, func(m *pbWriter) { m.varint(valueTypeType, 3); m.varint(2, 4) })
	for i, ids := range samples {
		p.msg(profSample, func(m *pbWriter) {
			if i%2 == 0 {
				m.packed(sampleLocationID, ids...)
				m.packed(sampleValue, 1, uint64(nanos[i]))
				return
			}
			for _, id := range ids {
				m.varint(sampleLocationID, id)
			}
			m.varint(sampleValue, 1)
			m.varint(sampleValue, uint64(nanos[i]))
		})
	}
	for i, frames := range locs {
		p.msg(profLocation, func(m *pbWriter) {
			m.varint(locationID, uint64(i+1))
			for _, f := range frames {
				id, ok := fnID[f]
				if !ok {
					id = uint64(len(fnID) + 1)
					fnID[f] = id
					strs = append(strs, f)
					p.msg(profFunction, func(fm *pbWriter) {
						fm.varint(functionID, id)
						fm.varint(functionName, uint64(len(strs)-1))
					})
				}
				m.msg(locationLine, func(lm *pbWriter) { lm.varint(lineFunctionID, id) })
			}
		})
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBucketHandBuiltProfile(t *testing.T) {
	locs := [][]string{
		// 1: cache.Lookup inlined into the hub's access path.
		{"pccsim/internal/cache.(*Cache).Lookup", "pccsim/internal/core.(*Hub).Access"},
		{"runtime.memclrNoHeapPointers"},                 // 2
		{"runtime.mallocgc"},                             // 3
		{"pccsim/internal/core.NewSystem"},               // 4
		{"runtime.nextFreeFast"},                         // 5
		{"pccsim/internal/network.(*Network).Send"},      // 6
		{"runtime.scanobject"},                           // 7
		{"runtime.gcDrain"},                              // 8
		{"runtime.gcBgMarkWorker"},                       // 9
		{"runtime.futex"},                                // 10
		{"runtime.findRunnable"},                         // 11
		{"runtime.mapaccess2"},                           // 12
		{"pccsim/internal/mem.(*Memory).Home"},           // 13
		{"runtime.duffcopy"},                             // 14
		{"math/rand.(*Rand).Intn"},                       // 15
		{"main.privateHits"},                             // 16
		{"pccsim/internal/runner.(*Runner).simulate"},    // 17
		{"pccsim/internal/stats.(*Stats).RecordMsg"},     // 18
		{"pccsim/internal/addrtab.(*Table[...]).Lookup"}, // 19
		{"internal/sync.(*Mutex).lockSlow"},              // 20
		{"pccsim/internal/cpu.(*BarrierSet).Arrive"},     // 21
		{"pccsim/internal/sim.(*Engine).Step"},           // 22
	}
	cases := []struct {
		stack []uint64
		nanos int64
		want  string
	}{
		{[]uint64{1, 22}, 30e6, "cache.self_s"},
		{[]uint64{2, 3, 4}, 20e6, "runtime.memclr_s"},
		{[]uint64{5, 3, 6}, 10e6, "runtime.malloc_s"},
		{[]uint64{7, 8, 9}, 10e6, "runtime.gc_s"},
		{[]uint64{10, 11}, 10e6, "runtime.sched_s"},
		{[]uint64{12, 13, 22}, 10e6, "mem.self_s"},
		{[]uint64{14, 6}, 10e6, "runtime.duffcopy_s"},
		{[]uint64{15, 16, 17}, 10e6, "other.self_s"},
		{[]uint64{18, 6}, 10e6, "other.self_s"},
		{[]uint64{19, 22}, 10e6, "addrtab.self_s"},
		{[]uint64{20, 21}, 10e6, "runtime.sched_s"},
		{[]uint64{22}, 10e6, "sim.self_s"},
		{nil, 10e6, "other.self_s"},
	}
	var samples [][]uint64
	var nanos []int64
	want := map[string]float64{}
	var total float64
	for _, c := range cases {
		samples = append(samples, c.stack)
		nanos = append(nanos, c.nanos)
		want[c.want] += float64(c.nanos) / 1e9
		total += float64(c.nanos) / 1e9
	}

	got, err := decodeProfile(bytes.NewReader(handProfile(t, locs, samples, nanos)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cases) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(cases))
	}
	if s := got[0].stack; len(s) != 3 || s[0] != locs[0][0] || s[1] != locs[0][1] {
		t.Errorf("inlined location expanded to %q, want innermost frame first", s)
	}
	for i, c := range cases {
		if b := bucket(got[i].stack); b != c.want {
			t.Errorf("sample %d %q: bucket %s, want %s", i, got[i].stack, b, c.want)
		}
	}
	secs := bucketSeconds(got)
	var sum float64
	for b, s := range secs {
		sum += s
		if math.Abs(s-want[b]) > 1e-9 {
			t.Errorf("%s = %g s, want %g", b, s, want[b])
		}
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %g s, samples to %g", sum, total)
	}
}

// TestBucketRealProfile decodes a profile runtime/pprof wrote and checks
// that the buckets account for every sample.
func TestBucketRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		x += len(privateHits(int64(x % 7)))
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, sum float64
	for _, s := range samples {
		total += float64(s.nanos) / 1e9
	}
	secs := bucketSeconds(samples)
	for _, s := range secs {
		sum += s
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %g s, samples to %g", sum, total)
	}
	if len(secs) != len(selfBuckets()) {
		t.Errorf("%d buckets, want %d", len(secs), len(selfBuckets()))
	}
}

func TestDecodeProfileRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0xff}) // a length prefix running past the end
	zw.Close()
	if _, err := decodeProfile(&buf); err == nil {
		t.Fatal("decoded a truncated profile without error")
	}
	if _, err := decodeProfile(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("decoded a non-gzip input without error")
	}
}
