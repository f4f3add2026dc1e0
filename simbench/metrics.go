package main

import (
	"math"

	"pccsim/internal/stats"
)

// metric is one reported quantity. BENCHMARK.json at the repository root
// lists the same names, units and directions (and a regression bound for
// each end-to-end metric); TestMetricsMatchBenchmarkJSON keeps the two in
// step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves says which end-to-end metric a per-layer metric should move,
	// and on which workload, so a change to one layer can be predicted
	// before it is measured.
	moves string
}

// endToEnd are the metrics a user of the simulator sees, one value per
// workload per untraced run. Cells that error or fail an output check are
// reported as the result's "failed" count against "attempted" (their
// ratio is cell_fail_ratio on the human-readable lines), not as a metric,
// because a metric must never read 0.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "events_per_s", unit: "1/s", better: "higher"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "sim_cycles", unit: "cycles", better: "lower"},
	{name: "sim_bytes", unit: "bytes", better: "lower"},
}

const (
	movesSetup   = "setup_s on paper-cells and wide-sharded"
	movesConstr  = "setup_s, wall_s and alloc_mb on paper-cells (28 constructions); no change on private-hits (one)"
	movesRunner  = "wall_s on paper-cells"
	movesEngine  = "events_per_s on all three workloads, mostly paper-cells"
	movesShards  = "wall_s on wide-sharded only"
	movesNetwork = "events_per_s and wall_s on paper-cells and wide-sharded; no change on private-hits"
	movesCore    = "wall_s on paper-cells"
	movesCounts  = "sim_cycles and sim_bytes, only if protocol behaviour changes"
	movesCache   = "wall_s and events_per_s on private-hits; slightly on paper-cells"
	movesTables  = "wall_s on paper-cells and wide-sharded"
	movesRuntime = "alloc_mb and wall_s on every workload; peak_rss_mb on wide-sharded"
)

// perLayer are the traced run's metrics: host time per layer (CPU-profile
// self time, or wall time at a layer boundary) and the layer's own work
// counts. Every value is per pass of the workload.
var perLayer = []metric{
	{"workload.build_s", "s", "lower", movesSetup},
	{"workload.ops", "count", "lower", movesSetup},
	{"workload.self_s", "s", "lower", movesSetup},
	{"node.new_s", "s", "lower", movesConstr},
	{"node.new_alloc_mb", "MB", "lower", movesConstr},
	{"node.self_s", "s", "lower", movesConstr},
	{"runtime.memclr_s", "s", "lower", movesConstr},
	{"runner.overhead_s", "s", "lower", movesRunner},
	{"runner.memo_hits", "count", "lower", movesRunner},
	{"runner.self_s", "s", "lower", movesRunner},
	{"sim.self_s", "s", "lower", movesEngine},
	{"sim.events", "count", "lower", movesEngine},
	{"sim.windows", "count", "lower", movesShards},
	{"sim.events_per_window", "count", "higher", movesShards},
	{"sim.shard_imbalance", "ratio", "lower", movesShards},
	{"sim.shard_speedup", "ratio", "higher", movesShards},
	{"runtime.sched_s", "s", "lower", movesShards},
	{"network.self_s", "s", "lower", movesNetwork},
	{"msg.self_s", "s", "lower", movesNetwork},
	{"runtime.duffcopy_s", "s", "lower", movesNetwork},
	{"network.msgs", "count", "lower", movesNetwork},
	{"network.bytes", "bytes", "lower", movesNetwork},
	{"network.hops_per_msg", "hops", "lower", movesNetwork},
	{"core.self_s", "s", "lower", movesCore},
	{"protocol.self_s", "s", "lower", movesCore},
	{"core.retries", "count", "lower", movesCounts},
	{"core.interventions", "count", "lower", movesCounts},
	{"core.invalidations", "count", "lower", movesCounts},
	{"core.miss_local_rac", "count", "higher", movesCounts},
	{"core.miss_local_home", "count", "lower", movesCounts},
	{"core.miss_2hop", "count", "lower", movesCounts},
	{"core.miss_3hop", "count", "lower", movesCounts},
	{"core.updates_sent", "count", "lower", movesCounts},
	{"core.update_useful_ratio", "ratio", "higher", movesCounts},
	{"cache.self_s", "s", "lower", movesCache},
	{"cache.l1_hits", "count", "higher", movesCache},
	{"cache.l2_hits", "count", "higher", movesCache},
	{"cache.hit_ratio", "ratio", "higher", movesCache},
	{"cpu.self_s", "s", "lower", movesCache},
	{"cpu.loads", "count", "lower", movesCache},
	{"cpu.stores", "count", "lower", movesCache},
	{"rac.self_s", "s", "lower", movesTables},
	{"rac.hits", "count", "higher", movesTables},
	{"directory.self_s", "s", "lower", movesTables},
	{"directory.dircache_evicts", "count", "lower", movesTables},
	{"delegate.self_s", "s", "lower", movesTables},
	{"delegate.delegations", "count", "higher", movesTables},
	{"delegate.undelegations", "count", "lower", movesTables},
	{"predictor.self_s", "s", "lower", movesTables},
	{"predictor.pc_lines", "count", "higher", movesTables},
	{"addrtab.self_s", "s", "lower", movesTables},
	{"mem.self_s", "s", "lower", movesTables},
	{"runtime.malloc_s", "s", "lower", movesRuntime},
	{"runtime.gc_s", "s", "lower", movesRuntime},
	{"runtime.mallocs", "count", "lower", movesRuntime},
	{"runtime.gc_cycles", "count", "lower", movesRuntime},
	{"runtime.gc_pause_s", "s", "lower", movesRuntime},
	{"other.self_s", "s", "lower", "samples no bucket above covers: stats, obs, the standard library and the benchmark itself"},
	{"trace.overhead_frac", "ratio", "lower", "traced wall_s / untraced wall_s - 1: how far the per-layer numbers are from an untraced run"},
}

const mb = 1 << 20

// endToEndValues computes the end-to-end metrics from a run's timed
// passes.
func endToEndValues(ps []pass) map[string]float64 {
	return map[string]float64{
		"wall_s":  perPass(ps, func(p pass) float64 { return p.wall.Seconds() }),
		"setup_s": perPass(ps, func(p pass) float64 { return sumCells(p, func(c cellRun) float64 { return c.setup.Seconds() }) }),
		"events_per_s": perPass(ps, func(p pass) float64 {
			return sumCells(p, func(c cellRun) float64 { return float64(c.events) }) /
				sumCells(p, func(c cellRun) float64 { return c.loop.Seconds() })
		}),
		"alloc_mb":    perPass(ps, func(p pass) float64 { return float64(p.alloc) / mb }),
		"peak_rss_mb": perPass(ps, func(p pass) float64 { return p.peakMB }),
		"sim_cycles": perPass(ps, func(p pass) float64 {
			return sumStats(p, func(s *stats.Stats) float64 { return float64(s.ExecCycles) })
		}),
		"sim_bytes": perPass(ps, func(p pass) float64 {
			return sumStats(p, func(s *stats.Stats) float64 { return float64(s.TotalBytes()) })
		}),
	}
}

// perLayerValues computes the per-layer metrics from a traced run: the
// profiled passes, with profile holding their summed CPU self time by
// bucket, the single-engine twins of a sharded workload (nil otherwise),
// and the untraced passes' median wall time. Self times are means per
// pass; everything else is a median over passes.
func perLayerValues(traced []pass, profile map[string]float64, twins []pass, untracedWall float64) map[string]float64 {
	cell := func(f func(cellRun) float64) float64 {
		return perPass(traced, func(p pass) float64 { return sumCells(p, f) })
	}
	st := func(f func(*stats.Stats) float64) float64 {
		return perPass(traced, func(p pass) float64 { return sumStats(p, f) })
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	wall := perPass(traced, func(p pass) float64 { return p.wall.Seconds() })
	events := cell(func(c cellRun) float64 { return float64(c.events) })
	windows := cell(func(c cellRun) float64 { return float64(c.windows) })
	msgs := st(func(s *stats.Stats) float64 { return float64(s.TotalMessages()) })
	ops := st(func(s *stats.Stats) float64 { return float64(s.Loads + s.Stores) })
	hits := st(func(s *stats.Stats) float64 { return float64(s.L1Hits + s.L2Hits) })

	v := map[string]float64{
		"workload.build_s":  cell(func(c cellRun) float64 { return c.build.Seconds() }),
		"workload.ops":      cell(func(c cellRun) float64 { return float64(c.ops) }),
		"node.new_s":        cell(func(c cellRun) float64 { return c.newDur.Seconds() }),
		"node.new_alloc_mb": cell(func(c cellRun) float64 { return float64(c.newAlloc) / mb }),
		"runner.overhead_s": cell(func(c cellRun) float64 {
			return (c.total - c.newDur - c.build - c.loop).Seconds()
		}),
		"runner.memo_hits": perPass(traced, func(p pass) float64 { return float64(p.memoHits) }),

		"sim.events":            events,
		"sim.windows":           windows,
		"sim.events_per_window": ratio(events, windows),
		"sim.shard_imbalance":   perPass(traced, shardImbalance),
		"sim.shard_speedup":     1,

		"network.msgs":         msgs,
		"network.bytes":        st(func(s *stats.Stats) float64 { return float64(s.TotalBytes()) }),
		"network.hops_per_msg": ratio(st(func(s *stats.Stats) float64 { return float64(s.HopSum) }), msgs),

		"core.retries":        st(func(s *stats.Stats) float64 { return float64(s.Retries) }),
		"core.interventions":  st(func(s *stats.Stats) float64 { return float64(s.Interventions) }),
		"core.invalidations":  st(func(s *stats.Stats) float64 { return float64(s.Invalidations) }),
		"core.miss_local_rac": st(func(s *stats.Stats) float64 { return float64(s.RACMisses()) }),
		"core.miss_local_home": st(func(s *stats.Stats) float64 {
			return float64(s.LocalHomeMisses())
		}),
		"core.miss_2hop":    st(func(s *stats.Stats) float64 { return float64(s.Remote2HopMisses()) }),
		"core.miss_3hop":    st(func(s *stats.Stats) float64 { return float64(s.Remote3HopMisses()) }),
		"core.updates_sent": st(func(s *stats.Stats) float64 { return float64(s.UpdatesSent) }),
		"core.update_useful_ratio": ratio(st(func(s *stats.Stats) float64 { return float64(s.UpdatesUseful) }),
			st(func(s *stats.Stats) float64 { return float64(s.UpdatesSent) })),

		"cache.l1_hits":   st(func(s *stats.Stats) float64 { return float64(s.L1Hits) }),
		"cache.l2_hits":   st(func(s *stats.Stats) float64 { return float64(s.L2Hits) }),
		"cache.hit_ratio": ratio(hits, ops),
		"cpu.loads":       st(func(s *stats.Stats) float64 { return float64(s.Loads) }),
		"cpu.stores":      st(func(s *stats.Stats) float64 { return float64(s.Stores) }),

		"rac.hits":                  st(func(s *stats.Stats) float64 { return float64(s.RACHits) }),
		"directory.dircache_evicts": st(func(s *stats.Stats) float64 { return float64(s.DirCacheEvicts) }),
		"delegate.delegations":      st(func(s *stats.Stats) float64 { return float64(s.Delegations) }),
		"delegate.undelegations":    st(func(s *stats.Stats) float64 { return float64(s.TotalUndelegations()) }),
		"predictor.pc_lines":        st(func(s *stats.Stats) float64 { return float64(s.PCLinesMarked) }),

		"runtime.mallocs":    perPass(traced, func(p pass) float64 { return float64(p.mallocs) }),
		"runtime.gc_cycles":  perPass(traced, func(p pass) float64 { return float64(p.gcs) }),
		"runtime.gc_pause_s": perPass(traced, func(p pass) float64 { return p.gcPause.Seconds() }),

		"trace.overhead_frac": wall/untracedWall - 1,
	}
	if len(twins) > 0 {
		twinWall := perPass(twins, func(p pass) float64 { return p.wall.Seconds() })
		v["sim.shard_speedup"] = twinWall / untracedWall
	}
	for b, s := range profile {
		v[b] = s / float64(len(traced))
	}
	return v
}

// shardImbalance is the largest shard's engine events over the mean
// across shards, summed over a pass's sharded cells; a single-engine
// machine is balanced by definition.
func shardImbalance(p pass) float64 {
	var maxSteps, total, shards float64
	for _, c := range p.cells {
		var m float64
		for _, s := range c.shardSteps {
			m = math.Max(m, float64(s))
			total += float64(s)
		}
		maxSteps += m
		shards = math.Max(shards, float64(len(c.shardSteps)))
	}
	if total == 0 {
		return 1
	}
	return maxSteps / (total / shards)
}
