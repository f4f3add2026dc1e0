package pccsim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pccsim"
	"pccsim/internal/harness"
	"pccsim/internal/msg"
	"pccsim/internal/protocol"
)

// TestEventStreamMatchesStats pins the event stream to the run's
// counters: every count the stream can derive — traffic by message class,
// hops, detections, delegations, undelegations by cause, interventions
// and update outcomes — equals its Stats field, for every workload under
// every protocol (with the mechanisms its capabilities allow), on one
// engine and on two parallel shards.
func TestEventStreamMatchesStats(t *testing.T) {
	var sum pccsim.Stats
	cells, ran := 0, 0
	for _, wl := range pccsim.Workloads() {
		for _, p := range protocol.All() {
			for _, shards := range []int{0, 2} {
				cells++
				t.Run(fmt.Sprintf("%s/%s/shards=%d", wl, p.Name(), shards), func(t *testing.T) {
					ran++
					cfg := harness.CompareConfig(pccsim.DefaultConfig(), p).With(pccsim.WithShards(shards))
					sum.Add(checkStreamMatchesStats(t, cfg, wl))
				})
			}
		}
	}
	// Every compared counter must be exercised somewhere in the full
	// matrix (a -run filter may select cells that exercise fewer).
	if ran < cells {
		return
	}
	if sum.PCLinesMarked == 0 || sum.Delegations == 0 || sum.TotalUndelegations() == 0 ||
		sum.Interventions == 0 || sum.UpdatesUseful == 0 || sum.UpdatesWasted == 0 {
		t.Errorf("matrix leaves a counter at zero: %+v", sum)
	}
}

func checkStreamMatchesStats(t *testing.T, cfg pccsim.Config, wl string) *pccsim.Stats {
	t.Helper()
	m, err := pccsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	es := m.Observe(0)
	var (
		count, bytes [msg.NumTypes]uint64
		hops         uint64
		undel        [3]uint64
	)
	es.OnEvent(func(e pccsim.Event) {
		switch e.Kind {
		case pccsim.KindSend:
			count[e.Msg.Type]++
			bytes[e.Msg.Type] += uint64(e.Bytes)
			hops += uint64(e.Hops)
		case pccsim.KindUndelegate:
			undel[e.Arg]++
		}
	})
	prog, err := pccsim.BuildWorkload(wl, pccsim.WorkloadParams{Nodes: cfg.Nodes})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if count != st.MsgCount || bytes != st.MsgBytes {
		t.Errorf("traffic: stream %v / %v, stats %v / %v", count, bytes, st.MsgCount, st.MsgBytes)
	}
	if hops != st.HopSum {
		t.Errorf("hops: stream %d, stats %d", hops, st.HopSum)
	}
	if undel != st.Undelegations {
		t.Errorf("undelegations by cause: stream %v, stats %v", undel, st.Undelegations)
	}
	by := &es.Metrics().ByKind
	for _, c := range []struct {
		name         string
		stream, stat uint64
	}{
		{"pc-detect", by[pccsim.KindPCDetect], st.PCLinesMarked},
		{"delegate", by[pccsim.KindDelegate], st.Delegations},
		{"intervention", by[pccsim.KindIntervention], st.Interventions},
		{"update-push", by[pccsim.KindUpdatePush], st.UpdatesSent},
		{"update-hit", by[pccsim.KindUpdateHit], st.UpdatesUseful},
		{"update-waste", by[pccsim.KindUpdateWaste], st.UpdatesWasted},
	} {
		if c.stream != c.stat {
			t.Errorf("%s: stream %d, stats %d", c.name, c.stream, c.stat)
		}
	}
	if st.TotalMessages() == 0 {
		t.Error("run sent no messages")
	}
	return st
}

// traceRun runs em3d on a 16-node machine with the paper's mechanisms and
// a message trace of the given capacity and line attached; observe
// attaches an event stream before (-1), after (+1) or not at all (0).
func traceRun(t *testing.T, opts []pccsim.Option, capacity int, line pccsim.Addr, observe int) (*pccsim.TraceRecorder, *pccsim.EventStream) {
	t.Helper()
	opts = append([]pccsim.Option{
		pccsim.WithRAC(32), pccsim.WithDelegation(32), pccsim.WithSpeculativeUpdates(0),
	}, opts...)
	m, err := pccsim.New(pccsim.DefaultConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	var es *pccsim.EventStream
	if observe < 0 {
		es = m.Observe(-1)
	}
	rec := m.Trace(capacity, line)
	if observe > 0 {
		es = m.Observe(-1)
	}
	prog, err := pccsim.BuildWorkload("em3d", pccsim.WorkloadParams{Nodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	return rec, es
}

func dumps(rec *pccsim.TraceRecorder) (timeline, stories string) {
	var a, b bytes.Buffer
	rec.Dump(&a)
	rec.DumpStories(&b)
	return a.String(), b.String()
}

func TestMachineTrace(t *testing.T) {
	const line = pccsim.Addr(0x10030580)

	t.Run("attach_order", func(t *testing.T) {
		alone, _ := traceRun(t, nil, 256, 0, 0)
		before, esBefore := traceRun(t, nil, 256, 0, -1)
		after, esAfter := traceRun(t, nil, 256, 0, +1)
		want, _ := dumps(alone)
		if want == "" {
			t.Fatal("trace recorded nothing")
		}
		for name, rec := range map[string]*pccsim.TraceRecorder{"observe-then-trace": before, "trace-then-observe": after} {
			if got, _ := dumps(rec); got != want || rec.Total() != alone.Total() {
				t.Errorf("%s: timeline differs from a trace alone (%d vs %d msgs)", name, rec.Total(), alone.Total())
			}
		}
		if esBefore.Total() == 0 || esBefore.Total() != esAfter.Total() {
			t.Errorf("observer saw %d events before the trace, %d after", esBefore.Total(), esAfter.Total())
		}
	})

	t.Run("line_filter", func(t *testing.T) {
		rec, es := traceRun(t, nil, -1, line, +1)
		var want uint64
		for _, e := range es.Events() {
			if e.Kind == pccsim.KindSend && e.Addr == line {
				want++
			}
		}
		timeline, stories := dumps(rec)
		lines := strings.Split(strings.TrimSuffix(timeline, "\n"), "\n")
		if want == 0 || rec.Total() != want || uint64(len(lines)) != want {
			t.Fatalf("recorded %d msgs, dumped %d lines; the line saw %d sends", rec.Total(), len(lines), want)
		}
		for _, l := range lines {
			if !strings.Contains(l, " send ") || !strings.Contains(l, "line 0x10030580") {
				t.Fatalf("filtered trace kept %q", l)
			}
		}
		if strings.Count(stories, "line 0x") != 1 {
			t.Fatalf("stories cover more than one line:\n%s", stories)
		}
	})

	// fullTimeline traces a whole run with a ring large enough to keep
	// every message and returns its dump split into lines.
	fullTimeline := func(t *testing.T) (*pccsim.TraceRecorder, []string) {
		all, _ := traceRun(t, nil, 1<<20, 0, 0)
		full, _ := dumps(all)
		lines := strings.SplitAfter(full, "\n")
		return all, lines[:len(lines)-1]
	}

	t.Run("record_and_dump", func(t *testing.T) {
		rec, es := traceRun(t, nil, 1<<20, 0, +1)
		var want strings.Builder
		var sends uint64
		for _, e := range es.Events() {
			if e.Kind == pccsim.KindSend {
				want.WriteString(e.String() + "\n")
				sends++
			}
		}
		got, _ := dumps(rec)
		if sends == 0 || rec.Total() != sends {
			t.Fatalf("recorded %d msgs; the run sent %d", rec.Total(), sends)
		}
		if got != want.String() {
			t.Fatal("Dump is not the run's sends, one per line, in send order")
		}
	})

	t.Run("ring_wraps", func(t *testing.T) {
		all, lines := fullTimeline(t)
		last8, _ := traceRun(t, nil, 8, 0, 0)
		if got, _ := dumps(last8); got != strings.Join(lines[len(lines)-8:], "") {
			t.Errorf("8-message ring kept:\n%s", got)
		}
		if last8.Total() != all.Total() {
			t.Errorf("Total counts %d, want %d", last8.Total(), all.Total())
		}
	})

	t.Run("default_capacity", func(t *testing.T) {
		all, lines := fullTimeline(t)
		if len(lines) <= 4096 {
			t.Fatalf("run too short to wrap the default ring: %d msgs", len(lines))
		}
		for _, capacity := range []int{0, -1} {
			deflt, _ := traceRun(t, nil, capacity, 0, 0)
			if got, _ := dumps(deflt); got != strings.Join(lines[len(lines)-4096:], "") {
				t.Errorf("capacity %d did not keep the last 4096 messages", capacity)
			}
			if deflt.Total() != all.Total() {
				t.Errorf("capacity %d: Total counts %d, want %d", capacity, deflt.Total(), all.Total())
			}
		}
	})

	t.Run("sharded_parallel_matches_serial", func(t *testing.T) {
		par, _ := traceRun(t, []pccsim.Option{pccsim.WithShards(2)}, 1<<20, 0, 0)
		ser, _ := traceRun(t, []pccsim.Option{pccsim.WithDeterministicShards(2)}, 1<<20, 0, 0)
		pt, ps := dumps(par)
		st, ss := dumps(ser)
		if pt == "" || pt != st {
			t.Errorf("Dump differs between parallel and serial shards (%d vs %d bytes)", len(pt), len(st))
		}
		if ps != ss {
			t.Errorf("DumpStories differs between parallel and serial shards")
		}
	})
}
