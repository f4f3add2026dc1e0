package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if !metricUnit.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("%s listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range perLayer {
		if m.moves == "" {
			t.Errorf("%s: no prediction of which end-to-end metric it moves", m.name)
		}
	}
	for _, b := range selfBuckets() {
		if !seen[b] {
			t.Errorf("profile bucket %s is not a per-layer metric", b)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json, which the
// benchmark's runs are checked against, in step with what the program
// prints.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
		Why    string   `json:"why"`
	}
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, e := range b.EndToEnd {
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v, want (0, 0.25]", e.Name, e.Bound)
		}
	}
	sp := specs()
	if len(b.Workloads) != len(sp) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(sp))
	}
	for i, s := range sp {
		if w := b.Workloads[i]; w.Name != s.name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), program %q", i, w.Name, w.Why, s.name)
		}
	}
}

func TestPerLayerValuesCoverEveryMetric(t *testing.T) {
	p := runPass(privateHitsJobs(1))
	profile := bucketSeconds(nil)
	got := perLayerValues([]pass{p}, profile, nil, p.wall.Seconds())
	want := map[string]bool{}
	for _, m := range perLayer {
		want[m.name] = true
		if _, ok := got[m.name]; !ok {
			t.Errorf("no value for %s", m.name)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("value for unlisted metric %s", k)
		}
	}
	p.peakMB = 1
	e2e := endToEndValues([]pass{p})
	for _, m := range endToEnd {
		if v, ok := e2e[m.name]; !ok || v <= 0 {
			t.Errorf("end-to-end %s = %v, want a positive value", m.name, v)
		}
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("%d end-to-end values, want %d", len(e2e), len(endToEnd))
	}
}

// TestRunPrintsResultLine drives the command as the benchmark contract
// does and checks the last line of its output.
func TestRunPrintsResultLine(t *testing.T) {
	var out, errs bytes.Buffer
	args := []string{"--workload", "private-hits", "--seed", "2", "--seconds", "0.5", "--trace", "0", "--root", ".."}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("result %+v", res)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if got := res.Metrics[m.name]; got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("%s = %+v", m.name, got)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"stray"},
	} {
		var out, errs bytes.Buffer
		start := time.Now()
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q", args, out.String())
		}
		if time.Since(start) > time.Second {
			t.Errorf("%q: took %v", args, time.Since(start))
		}
	}
}

func TestCheckCountsFailedCells(t *testing.T) {
	jobs := paperCells(defaultSeed)[:3]
	ref := pass{cells: []cellRun{{fp: 1}, {fp: 2}, {fp: 3}}}
	p := pass{cells: []cellRun{{fp: 1}, {fp: 9}, {err: errProfile}}, memoHits: 1}
	var o outcome
	o.check("pass", ref, nil, jobs)
	o.check("pass", p, &ref, jobs)
	if o.attempted != 6 || o.failed != 3 || len(o.problems) != 3 {
		t.Errorf("attempted %d, failed %d, problems %q; want 6, 3 (a changed cell, an error, a memo hit)",
			o.attempted, o.failed, o.problems)
	}
}
