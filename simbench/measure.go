package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"pccsim/internal/cpu"
	"pccsim/internal/node"
	"pccsim/internal/runner"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// cellRun is one cell's outputs and the host time spent in each layer,
// timed from outside the program at the runner's hooks.
type cellRun struct {
	st  *stats.Stats
	err error
	fp  uint64 // hash of every statistic the cell produced

	ops    uint64        // ops the workload built
	total  time.Duration // runner.RunOne call
	newDur time.Duration // RunOne call to Attach: node.New
	build  time.Duration // workload.Workload.Build
	setup  time.Duration // RunOne call to Observer.Start
	loop   time.Duration // Observer.Start to Observer.Done
	events uint64        // engine events the loop executed

	newAlloc   uint64   // bytes allocated by node.New
	windows    uint64   // sim.Group windows (sharded machines only)
	shardSteps []uint64 // per-shard engine events (sharded machines only)
}

// pass is one run of every cell of a workload on a fresh one-worker
// runner, so the memo never serves a cell.
type pass struct {
	cells    []cellRun
	wall     time.Duration
	alloc    uint64 // TotalAlloc delta
	mallocs  uint64
	gcs      uint64
	gcPause  time.Duration
	memoHits uint64
	peakMB   float64 // peak resident set during the pass
}

// runPass runs jobs one at a time, each starting when the previous one
// finishes.
func runPass(jobs []runner.Job) pass {
	var cur *cellRun
	var t0 time.Time
	r := runner.New(1, func(ev runner.Event) {
		if ev.Cached {
			return
		}
		if !ev.Done {
			cur.setup = time.Since(t0)
			return
		}
		cur.loop, cur.events = ev.Wall, ev.Events
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := pass{cells: make([]cellRun, len(jobs))}
	start := time.Now()
	for i, job := range jobs {
		c := &p.cells[i]
		cur = c
		inner := job.Workload
		job.Workload = &workload.Workload{Name: inner.Name, Build: func(wp workload.Params) [][]cpu.Op {
			t := time.Now()
			ops := inner.Build(wp)
			c.build = time.Since(t)
			for _, s := range ops {
				c.ops += uint64(len(s))
			}
			return ops
		}}
		var m *node.Machine
		allocBefore := heapAllocs()
		job.Attach = func(built *node.Machine) {
			c.newDur = time.Since(t0)
			c.newAlloc = heapAllocs() - allocBefore
			m = built
		}
		t0 = time.Now()
		c.st, c.err = r.RunOne(job)
		c.total = time.Since(t0)
		if m != nil && m.Sys.Sharded() {
			g := m.Sys.Group()
			c.windows = g.Windows()
			for s := 0; s < g.Shards(); s++ {
				c.shardSteps = append(c.shardSteps, g.Engine(s).Steps())
			}
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcs = uint64(after.NumGC - before.NumGC)
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	p.memoHits, _ = r.CacheStats()
	for i := range p.cells {
		if c := &p.cells[i]; c.err == nil {
			c.fp = fingerprint(c.st)
		}
	}
	return p
}

// heapAllocs reads the bytes allocated since the process started without
// stopping the world, as runtime.ReadMemStats would.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fingerprint hashes every counter of a cell's statistics; Stats is a
// plain value struct, so %#v renders it canonically.
func fingerprint(st *stats.Stats) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", *st)
	return h.Sum64()
}

// resetPeakRSS collects the previous pass's machines outside the timed
// region and restarts the kernel's peak-RSS counter, so each pass starts
// from the same heap and its peak excludes earlier passes. The heap keeps
// the pages it already has: returning them to the OS before every pass
// would make each pass pay to fault them back in.
func resetPeakRSS() {
	runtime.GC()
	// "5" resets the peak resident set size (Linux 4.0+). Where the
	// kernel refuses, the peak covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perPass applies f to every pass and returns the median.
func perPass(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// sumCells adds f over a pass's cells.
func sumCells(p pass, f func(cellRun) float64) float64 {
	var t float64
	for _, c := range p.cells {
		t += f(c)
	}
	return t
}

// sumStats adds f over a pass's cell statistics.
func sumStats(p pass, f func(*stats.Stats) float64) float64 {
	return sumCells(p, func(c cellRun) float64 {
		if c.st == nil {
			return 0
		}
		return f(c.st)
	})
}
