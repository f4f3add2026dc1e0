package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/node"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// ShardReport is the schema of BENCH_pr8.json: the sharded-engine scaling
// record. Speedups are honest host measurements — on a single-CPU runner
// the parallel scheduler cannot beat the serial one, which is why CPUs is
// part of the record and the check gate treats speedup as informational
// when the host lacks cores.
type ShardReport struct {
	Workload  string      `json:"workload"`
	GoVersion string      `json:"go_version"`
	CPUs      int         `json:"cpus"`
	Timestamp string      `json:"timestamp"`
	Cells     []ShardCell `json:"cells"`
}

// ShardCell is one (nodes, shards) measurement. Shards == 1 is the serial
// baseline its row's speedups are relative to. StatsMatch reports whether
// the parallel scheduler's end-state Stats equalled the deterministic
// serial scheduler's at the same shard count — the correctness gate that
// licenses trusting the fast mode's numbers at all. Windows is the number
// of conservative windows (coordinator barriers) the run dispatched.
type ShardCell struct {
	Nodes       int     `json:"nodes"`
	Shards      int     `json:"shards"`
	Parallel    bool    `json:"parallel"`
	Events      uint64  `json:"events"`
	WallSeconds float64 `json:"wall_seconds"`
	NsPerEvent  float64 `json:"ns_per_event"`
	Speedup     float64 `json:"speedup_vs_1shard,omitempty"`
	StatsMatch  bool    `json:"stats_match_deterministic"`
	Windows     uint64  `json:"windows,omitempty"`
}

// SweepNodeCounts and SweepShardCounts are the full scaling grid the
// committed BENCH baseline covers.
func SweepNodeCounts() []int  { return []int{16, 32, 64, 128, 256} }
func SweepShardCounts() []int { return []int{1, 2, 4, 8, 16} }

// shardRun executes the sweep workload once on a machine with the given
// shard configuration; the returned stats feed the serial/parallel match
// check, the event count and wall time feed the throughput columns, and
// the window count feeds the barrier-overhead column.
func shardRun(nodes, shards int, parallel bool) (*stats.Stats, uint64, uint64, time.Duration, error) {
	cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32))
	cfg.Nodes = nodes
	cfg.Shards = shards
	cfg.ShardsParallel = parallel && shards > 1
	m, err := node.New(cfg)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	wl, ok := workload.ByName("em3d")
	if !ok {
		return nil, 0, 0, 0, fmt.Errorf("em3d workload missing")
	}
	ops := wl.Build(workload.Params{Nodes: nodes})
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	start := time.Now()
	st, err := m.Run(streams)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	wall := time.Since(start)
	var windows uint64
	if m.Sys.Sharded() {
		windows = m.Sys.Group().Windows()
	}
	return st, m.Sys.Steps(), windows, wall, nil
}

// RunShardSweep measures em3d across the node-count × shard-count grid
// and returns the scaling report, logging one line per cell to log (nil =
// quiet). Node counts run up to msg.MaxNodes (256): the sharing vector is
// a four-word full map. Each multi-shard cell is measured twice: parallel
// (the headline numbers) and serial (the stats-match reference).
func RunShardSweep(nodeCounts, shardCounts []int, log io.Writer) (*ShardReport, error) {
	if log == nil {
		log = io.Discard
	}
	rep := &ShardReport{
		Workload:  "em3d",
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, n := range nodeCounts {
		var baseWall time.Duration
		for _, sh := range shardCounts {
			if sh > n {
				continue
			}
			parallel := sh > 1
			st, events, windows, wall, err := shardRun(n, sh, parallel)
			if err != nil {
				return nil, fmt.Errorf("nodes=%d shards=%d: %w", n, sh, err)
			}
			cell := ShardCell{
				Nodes: n, Shards: sh, Parallel: parallel,
				Events:      events,
				WallSeconds: wall.Seconds(),
				NsPerEvent:  float64(wall.Nanoseconds()) / float64(events),
				StatsMatch:  true,
				Windows:     windows,
			}
			if sh == 1 {
				baseWall = wall
			} else {
				if baseWall > 0 {
					cell.Speedup = baseWall.Seconds() / wall.Seconds()
				}
				det, _, _, _, err := shardRun(n, sh, false)
				if err != nil {
					return nil, fmt.Errorf("nodes=%d shards=%d serial: %w", n, sh, err)
				}
				cell.StatsMatch = reflect.DeepEqual(st, det)
			}
			fmt.Fprintf(log, "pccperf: shards nodes=%-3d shards=%-2d %9d events in %-10v %6.1f ns/ev speedup=%.2f match=%v windows=%d\n",
				n, sh, cell.Events, wall.Round(time.Millisecond), cell.NsPerEvent, cell.Speedup,
				cell.StatsMatch, cell.Windows)
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// CheckShards is the sharded-engine gate for bench-smoke: a reduced sweep
// (16 nodes at 1 and 4 shards) whose parallel stats MUST match the
// deterministic scheduler's, and whose ns/event must stay within the
// tolerance factor of the committed baseline's matching cell. Speedup is
// informational: it gates nothing unless the host actually has cores to
// parallelize over, and even then only warns — wall-clock scaling claims
// belong in the BENCH baseline with the CPU count attached, not in a CI
// gate that runs on arbitrary machines. It reports whether the gate
// passed.
func CheckShards(path string, tol float64, log io.Writer) bool {
	if log == nil {
		log = io.Discard
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(log, "pccperf:", err)
		return false
	}
	var base ShardReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(log, "pccperf: %s: %v\n", path, err)
		return false
	}
	baseNs := func(nodes, shards int) float64 {
		for _, c := range base.Cells {
			if c.Nodes == nodes && c.Shards == shards {
				return c.NsPerEvent
			}
		}
		return 0
	}

	rep, err := RunShardSweep([]int{16}, []int{1, 4}, log)
	if err != nil {
		fmt.Fprintln(log, "pccperf:", err)
		return false
	}
	ok := true
	for _, c := range rep.Cells {
		name := fmt.Sprintf("shards-%dn%ds", c.Nodes, c.Shards)
		if !c.StatsMatch {
			fmt.Fprintf(log, "pccperf: check %-16s FAIL: parallel stats diverge from deterministic\n", name)
			ok = false
		}
		if want := baseNs(c.Nodes, c.Shards); want <= 0 {
			fmt.Fprintf(log, "pccperf: check %-16s baseline cell missing; skipped\n", name)
		} else if c.NsPerEvent > want*tol {
			fmt.Fprintf(log, "pccperf: check %-16s FAIL: %.2f ns/ev vs baseline %.2f (> %.1fx)\n",
				name, c.NsPerEvent, want, tol)
			ok = false
		} else {
			fmt.Fprintf(log, "pccperf: check %-16s ok: %.2f ns/ev vs baseline %.2f (%.2fx)\n",
				name, c.NsPerEvent, want, c.NsPerEvent/want)
		}
		if c.Shards > 1 && runtime.NumCPU() >= c.Shards && c.Speedup < 1 {
			fmt.Fprintf(log, "pccperf: check %-16s warn: speedup %.2fx on %d CPUs\n",
				name, c.Speedup, runtime.NumCPU())
		}
	}
	if ok {
		fmt.Fprintf(log, "pccperf: check-shards OK against %s (tolerance %.1fx)\n", path, tol)
	}
	return ok
}
