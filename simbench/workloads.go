package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/harness"
	"pccsim/internal/msg"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// defaultSeed is the seed at which paper-cells must reproduce the
// committed bake-off golden. Params.Seed 0 selects each generator's fixed
// seed, which is what the golden was recorded with.
const defaultSeed = 0

// spec is one benchmark workload: the cells one pass runs, plus the
// extra output checks that apply to it.
type spec struct {
	name string
	jobs func(seed int64) []runner.Job
	// golden, when set, checks one pass's outputs at the default seed
	// against a committed reference and returns which cells differ.
	golden func(root string, res []*stats.Stats) ([]bool, error)
	// twin, when set, returns the single-engine serial twin of a job.
	// The traced run checks that it reproduces the job's statistics and
	// times it for sim.shard_speedup.
	twin func(runner.Job) runner.Job
}

// specs are the benchmark's workloads, in BENCHMARK.json's order, which
// gives the reason for each. Each stresses different layers: paper-cells
// the machine construction and coherence message path, private-hits the
// cache tag tables with the message path idle, and wide-sharded the
// sharded engine's windows, mailboxes and barriers.
func specs() []spec {
	return []spec{
		{
			name:   "paper-cells",
			jobs:   paperCells,
			golden: compareGolden,
		},
		{
			name: "private-hits",
			jobs: privateHitsJobs,
		},
		{
			name: "wide-sharded",
			jobs: wideSharded,
			twin: serialTwin,
		},
	}
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs() {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// paperCells is the bake-off grid in harness.Compare's order: workloads
// in paper order, protocols in registry order within each workload.
func paperCells(seed int64) []runner.Job {
	base := core.DefaultConfig()
	p := workload.Params{Nodes: base.Nodes, Scale: 1, Seed: seed}
	var jobs []runner.Job
	for _, wl := range workload.All() {
		for _, proto := range protocol.All() {
			jobs = append(jobs, runner.Job{
				Label:    "compare/" + wl.Name + "/" + proto.Name(),
				Cfg:      harness.CompareConfig(base, proto),
				Workload: wl,
				Params:   p,
			})
		}
	}
	return jobs
}

// paperMachine is the paper's small configuration: the adaptive protocol
// with a 32-entry delegate cache, a 32K RAC and speculative updates.
func paperMachine(nodes int) core.Config {
	base := core.DefaultConfig()
	base.Nodes = nodes
	proto, err := protocol.Lookup(protocol.Default)
	if err != nil {
		panic(err) // the default protocol is always registered
	}
	return harness.CompareConfig(base, proto)
}

func wideSharded(seed int64) []runner.Job {
	const nodes = 256
	cfg := paperMachine(nodes)
	cfg.Shards = 2
	cfg.ShardsParallel = true
	em3d, _ := workload.ByName("em3d")
	return []runner.Job{{
		Label:    "wide/em3d/256n/2shards",
		Cfg:      cfg,
		Workload: em3d,
		Params:   workload.Params{Nodes: nodes, Scale: 1, Seed: seed},
	}}
}

func serialTwin(j runner.Job) runner.Job {
	j.Label += "/twin"
	j.Cfg.Shards = 1
	j.Cfg.ShardsParallel = false
	return j
}

// The private-hits program: every node walks its own region, which is
// larger than L1 and fits in L2, so after the first-touch sweep nearly
// every access is an L2 hit on a line the node holds exclusively. A small
// read-only table homed on node 0 adds a trickle of shared reads.
const (
	phNodes       = 16
	phRegionLines = 4096 // 512 KB per node: 16x the 32 KB L1, 1/4 of the 2 MB L2
	phSweeps      = 16
	phTableLines  = 64 // 8 KB shared table
	phStoreEvery  = 10 // one store per ten private accesses
	phTableEvery  = 64 // one shared-table read per 64 private accesses
	phPageBytes   = 4096
)

// privateHits builds the private-hits op streams; seed picks each node's
// walk order and the word each access touches.
func privateHits(seed int64) [][]cpu.Op {
	const lineBytes = workload.LineBytes
	const regionBytes = phRegionLines * lineBytes
	base := msg.Addr(0x1000_0000)
	region := func(n int) msg.Addr { return base + msg.Addr(n)*(regionBytes+phPageBytes) }
	table := region(phNodes)

	ops := make([][]cpu.Op, phNodes)
	add := func(n int, k cpu.OpKind, a msg.Addr) { ops[n] = append(ops[n], cpu.Op{Kind: k, Addr: a}) }
	// First touch places each region on its walker's node and the table
	// on node 0.
	for n := 0; n < phNodes; n++ {
		for l := 0; l < phRegionLines; l++ {
			add(n, cpu.Store, region(n)+msg.Addr(l*lineBytes))
		}
	}
	for l := 0; l < phTableLines; l++ {
		add(0, cpu.Store, table+msg.Addr(l*lineBytes))
	}
	barrier := func(id int) {
		for n := range ops {
			ops[n] = append(ops[n], cpu.Op{Kind: cpu.Barrier, Bar: id})
		}
	}
	barrier(0)
	for n := 0; n < phNodes; n++ {
		rng := rand.New(rand.NewSource(seed*phNodes + int64(n)))
		i := 0
		for s := 0; s < phSweeps; s++ {
			for _, l := range rng.Perm(phRegionLines) {
				if i%phTableEvery == 0 {
					add(n, cpu.Load, table+msg.Addr(rng.Intn(phTableLines)*lineBytes))
				}
				kind := cpu.Load
				if i%phStoreEvery == phStoreEvery-1 {
					kind = cpu.Store
				}
				add(n, kind, region(n)+msg.Addr(l*lineBytes+rng.Intn(lineBytes/8)*8))
				i++
			}
		}
	}
	barrier(1)
	return ops
}

func privateHitsJobs(seed int64) []runner.Job {
	wl := &workload.Workload{Name: "private-hits", Build: func(p workload.Params) [][]cpu.Op {
		return privateHits(p.Seed)
	}}
	return []runner.Job{{
		Label:    "private-hits/16n",
		Cfg:      paperMachine(phNodes),
		Workload: wl,
		Params:   workload.Params{Nodes: phNodes, Scale: 1, Seed: seed},
	}}
}

// compareGolden renders paper-cells results as pccbench -compare's CSV
// and reports, per cell, whether its row differs from
// testdata/compare.golden.csv.
func compareGolden(root string, res []*stats.Stats) ([]bool, error) {
	want, err := os.ReadFile(filepath.Join(root, "testdata", "compare.golden.csv"))
	if err != nil {
		return nil, fmt.Errorf("compare golden: %w", err)
	}
	var got bytes.Buffer
	if err := harness.WriteCompareCSV(&got, compareRows(res)); err != nil {
		return nil, fmt.Errorf("compare golden: %w", err)
	}
	gotLines, wantLines := lines(got.String()), lines(string(want))
	bad := make([]bool, len(res))
	for i := range bad {
		// Line 0 is the header; row i+1 is cell i.
		bad[i] = len(gotLines) != len(wantLines) || gotLines[0] != wantLines[0] ||
			i+1 >= len(gotLines) || gotLines[i+1] != wantLines[i+1]
	}
	return bad, nil
}

func lines(s string) []string { return strings.Split(strings.TrimRight(s, "\n"), "\n") }

// compareRows mirrors harness.Session.Compare's row assembly over the
// paperCells grid; any result it cannot read (a failed cell) leaves a
// zero row, which then differs from the golden.
func compareRows(res []*stats.Stats) []harness.CompareRow {
	protos := protocol.All()
	var rows []harness.CompareRow
	for i, wl := range workload.All() {
		group := res[i*len(protos) : (i+1)*len(protos)]
		var baseline uint64
		for j, p := range protos {
			if p.Name() == harness.CompareBaseline && group[j] != nil {
				baseline = group[j].ExecCycles
			}
		}
		for j, p := range protos {
			row := harness.CompareRow{App: wl.Name, Protocol: p.Name()}
			if st := group[j]; st != nil {
				row.Cycles = st.ExecCycles
				if st.ExecCycles > 0 {
					row.Speedup = float64(baseline) / float64(st.ExecCycles)
				}
				row.Messages = st.TotalMessages()
				row.Bytes = st.TotalBytes()
				row.AvgHops = st.AvgHops()
				row.MissRAC = st.RACMisses()
				row.MissLocalHome = st.LocalHomeMisses()
				row.MissRemote2 = st.Remote2HopMisses()
				row.MissRemote3 = st.Remote3HopMisses()
				row.UpdateAcc = st.UpdateAccuracy()
				row.Delegations = st.Delegations
				row.NackCount = st.Nacks()
			}
			rows = append(rows, row)
		}
	}
	return rows
}
