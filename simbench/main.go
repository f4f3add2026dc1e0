// Command simbench is the simulator's benchmark. It runs one named
// workload (or all of them, one after another, in one process) for a fixed
// host-time budget, checks every simulated output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer ledger, each
// layer metric beside the end-to-end metric it should move — one per line
// with its unit. The first line records the host's CPU count, GOMAXPROCS,
// the Go version, the seed and the commit; the last is one JSON result:
//
//	{"correct": true, "attempted": 252, "failed": 0, "metrics": {"wall_s": {"value": 2.18, "unit": "s"}, ...}}
//
// Load is closed-loop: one client runs a workload's cells one at a time
// on a fresh one-worker runner per pass, each cell starting when the
// previous one finishes. The first pass is a warm-up whose outputs are the
// reference every later pass must reproduce; metrics are medians over the
// timed passes. The command exits 1 if any cell errored or failed a check.
//
// Run it from the repository root; see run.sh, which builds it first.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"pccsim/internal/runner"
	"pccsim/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	seed   int64
	budget time.Duration
	traced bool
	root   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: paper-cells, private-hits, wide-sharded, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the golden check applies at the default seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure each workload for")
	trace := fs.Int("trace", 0, "1 to print the per-layer metrics of a traced run instead of the end-to-end ones")
	root := fs.String("root", ".", "repository root, for testdata/compare.golden.csv")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "simbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	var todo []spec
	if *name == "all" {
		todo = specs()
	} else if s, ok := lookupSpec(*name); ok {
		todo = []spec{s}
	} else {
		fmt.Fprintf(stderr, "simbench: unknown workload %q\n", *name)
		return 2
	}
	opts := options{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, root: *root}

	commit := os.Getenv("SIMBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(stdout, "simbench: cpus=%d gomaxprocs=%d go=%s seed=%d commit=%s seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, commit, *seconds, *trace)

	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, s := range todo {
		o, err := runWorkload(s, opts)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %s: %v\n", s.name, err)
			return 1
		}
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "simbench: %s: %s\n", s.name, p)
		}
		o.print(stdout, s.name)
		result.Attempted += o.attempted
		result.Failed += o.failed
		for _, m := range o.defs {
			key := m.name
			if len(todo) > 1 {
				key = s.name + "." + m.name
			}
			result.Metrics[key] = jsonMetric{Value: o.values[m.name], Unit: m.unit}
		}
	}
	result.Correct = result.Failed == 0
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload's result.
type outcome struct {
	passes    int // passes run, warm-up and twins included
	cells     int // cells per pass
	attempted int
	failed    int
	problems  []string
	defs      []metric
	values    map[string]float64
}

func (o *outcome) print(w io.Writer, name string) {
	fmt.Fprintf(w, "%s: %d passes of %d cells, %d cells attempted, %d failed\n",
		name, o.passes, o.cells, o.attempted, o.failed)
	for _, m := range o.defs {
		fmt.Fprintf(w, "  %-26s %-12.6g %-6s %s\n", m.name, o.values[m.name], m.unit, m.moves)
	}
	fmt.Fprintf(w, "  %-26s %-12.6g %s\n", "cell_fail_ratio", float64(o.failed)/float64(o.attempted), "ratio")
}

// check counts a pass's cells as attempted and fails any that errored or
// whose statistics differ from the reference pass's. Every cell must
// simulate, so a pass the runner's memo served from fails as a whole.
func (o *outcome) check(label string, p pass, ref *pass, jobs []runner.Job) {
	o.passes++
	if p.memoHits > 0 {
		o.fail("%s: the runner memo served %d cells", label, p.memoHits)
	}
	for i, c := range p.cells {
		o.attempted++
		switch {
		case c.err != nil:
			o.fail("%s %s: %v", label, jobs[i].Label, c.err)
		case ref != nil && ref.cells[i].err == nil && c.fp != ref.cells[i].fp:
			o.fail("%s %s: statistics differ from the first pass", label, jobs[i].Label)
		}
	}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload for the budget. Untraced, every pass
// after the warm-up is timed. Traced, the budget is split between
// untraced passes (the reference for trace.overhead_frac), single-engine
// twins where the workload has them, and profiled passes.
func runWorkload(s spec, opts options) (*outcome, error) {
	start := time.Now()
	jobs := s.jobs(opts.seed)
	o := &outcome{cells: len(jobs)}
	// Start from the heap an earlier workload in this process left
	// behind, returned to the OS, so its pages do not count here.
	runtime.GC()
	debug.FreeOSMemory()

	ref := runPass(jobs)
	o.check("warm-up", ref, nil, jobs)
	if s.golden != nil && opts.seed == defaultSeed {
		res := make([]*stats.Stats, len(ref.cells))
		for i, c := range ref.cells {
			res[i] = c.st
		}
		bad, err := s.golden(opts.root, res)
		if err != nil {
			return nil, err
		}
		for i, b := range bad {
			if b && ref.cells[i].err == nil {
				o.fail("golden %s: row differs from testdata/compare.golden.csv", jobs[i].Label)
			}
		}
	}

	phases := 1
	if opts.traced {
		phases = 2
		if s.twin != nil {
			phases = 3
		}
	}
	// timed runs passes until the k-th of the remaining phases' equal
	// shares of the budget is spent, stopping early rather than overrun
	// it by a pass; it always runs at least one.
	timed := func(k int, label string, jobs []runner.Job, runOne func([]runner.Job) (pass, error)) ([]pass, error) {
		end := time.Now().Add((opts.budget - time.Since(start)) / time.Duration(phases-k))
		var ps []pass
		for len(ps) == 0 || time.Until(end) >= ps[len(ps)-1].wall {
			resetPeakRSS()
			p, err := runOne(jobs)
			if err != nil {
				return nil, err
			}
			if p.peakMB, err = peakRSSMB(); err != nil {
				return nil, err
			}
			o.check(label, p, &ref, jobs)
			ps = append(ps, p)
		}
		return ps, nil
	}
	plain := func(jobs []runner.Job) (pass, error) { return runPass(jobs), nil }

	untraced, err := timed(0, "pass", jobs, plain)
	if err != nil {
		return nil, err
	}
	if !opts.traced {
		o.defs, o.values = endToEnd, endToEndValues(untraced)
		return o, nil
	}

	var twins []pass
	if s.twin != nil {
		twinJobs := make([]runner.Job, len(jobs))
		for i, j := range jobs {
			twinJobs[i] = s.twin(j)
		}
		if twins, err = timed(1, "twin", twinJobs, plain); err != nil {
			return nil, err
		}
	}

	// Each traced pass is profiled on its own, so the collection between
	// passes stays out of the buckets.
	profile := map[string]float64{}
	traced, err := timed(phases-1, "traced", jobs, func(jobs []runner.Job) (pass, error) {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return pass{}, fmt.Errorf("cpu profile: %w", err)
		}
		p := runPass(jobs)
		pprof.StopCPUProfile()
		samples, err := decodeProfile(&buf)
		if err != nil {
			return pass{}, err
		}
		for b, sec := range bucketSeconds(samples) {
			profile[b] += sec
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	untracedWall := perPass(untraced, func(p pass) float64 { return p.wall.Seconds() })
	o.defs, o.values = perLayer, perLayerValues(traced, profile, twins, untracedWall)
	return o, nil
}
