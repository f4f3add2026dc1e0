package node

import (
	"reflect"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// runMachine executes one workload on a fresh machine built from cfg and
// returns the aggregated stats plus the number of conservative windows
// the sharded scheduler dispatched (0 on a single engine).
func runMachine(t *testing.T, wl *workload.Workload, cfg core.Config) (*stats.Stats, uint64) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s nodes=%d shards=%d: %v", wl.Name, cfg.Nodes, cfg.Shards, err)
	}
	ops := wl.Build(workload.Params{Nodes: cfg.Nodes, Iters: 1})
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	st, err := m.Run(streams)
	if err != nil {
		t.Fatalf("%s nodes=%d shards=%d parallel=%v: %v", wl.Name, cfg.Nodes, cfg.Shards, cfg.ShardsParallel, err)
	}
	var windows uint64
	if m.Sys.Sharded() {
		windows = m.Sys.Group().Windows()
	}
	return st, windows
}

// runSharded executes one workload on a fresh machine with the given
// shard configuration and returns the aggregated stats and window count.
func runSharded(t *testing.T, wl *workload.Workload, shards int, parallel bool) (*stats.Stats, uint64) {
	t.Helper()
	cfg := core.DefaultConfig().With(
		core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
	cfg.CheckInvariants = true
	cfg.WatchdogSteps = 50_000_000
	cfg.Shards = shards
	cfg.ShardsParallel = parallel
	return runMachine(t, wl, cfg)
}

// TestShardEquivalenceAllWorkloads asserts the acceptance property of the
// sharded engine: for every workload and every shard count, the parallel
// scheduler's end-state Stats are identical to the deterministic serial
// scheduler's — same misses, same messages, same cycles, everything —
// and both dispatch the same number of conservative windows.
func TestShardEquivalenceAllWorkloads(t *testing.T) {
	shardCounts := []int{2, 4, 8}
	if testing.Short() {
		shardCounts = []int{4}
	}
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range shardCounts {
				det, detWin := runSharded(t, wl, shards, false)
				fast, fastWin := runSharded(t, wl, shards, true)
				if !reflect.DeepEqual(det, fast) {
					t.Errorf("%s at %d shards: parallel stats diverge from deterministic\nserial:   %+v\nparallel: %+v",
						wl.Name, shards, det, fast)
				}
				if detWin != fastWin {
					t.Errorf("%s at %d shards: window count differs: serial %d, parallel %d",
						wl.Name, shards, detWin, fastWin)
				}
			}
		})
	}
}

// TestShardedSmoke runs one workload across the full shard-count range,
// including the single-shard degenerate group, and checks the run
// completes with coherent end state (Run already quiesce-checks).
func TestShardedSmoke(t *testing.T) {
	wl, _ := workload.ByName("em3d")
	for _, shards := range []int{2, 16} {
		runSharded(t, wl, shards, true)
	}
}

// wideConfig is the delegation-only machine the wide-vector tests run on.
func wideConfig(nodes, shards int, parallel bool) core.Config {
	cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32))
	cfg.Nodes = nodes
	cfg.CheckInvariants = true
	cfg.WatchdogSteps = 200_000_000
	cfg.Shards = shards
	cfg.ShardsParallel = parallel
	return cfg
}

// TestShardEquivalence128Nodes scales the acceptance property past the
// old 64-node sharing-vector limit: at 128 nodes, for every workload,
// the parallel scheduler matches the deterministic serial one exactly.
func TestShardEquivalence128Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node sweep is long; run without -short")
	}
	shardCounts := []int{4, 16}
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range shardCounts {
				det, _ := runMachine(t, wl, wideConfig(128, shards, false))
				fast, _ := runMachine(t, wl, wideConfig(128, shards, true))
				if !reflect.DeepEqual(det, fast) {
					t.Errorf("%s at 128 nodes, %d shards: parallel stats diverge from deterministic",
						wl.Name, shards)
				}
			}
		})
	}
}

// TestWideSmoke256 runs the full vector width: a 256-node machine (all
// four words of msg.Vector populated) under the parallel scheduler,
// quiesce-checked by Run.
func TestWideSmoke256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node run is long; run without -short")
	}
	wl, _ := workload.ByName("em3d")
	runMachine(t, wl, wideConfig(256, 16, true))
}
