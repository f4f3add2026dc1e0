package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

func send(at uint64, t msg.Type, src, dst msg.NodeID, addr msg.Addr, hops uint8) Event {
	m := msg.Message{Type: t, Src: src, Dst: dst, Addr: addr}
	return Event{At: sim.Time(at), Kind: KindSend, Node: src, Addr: addr,
		Hops: hops, Bytes: uint32(m.Bytes()), Msg: m}
}

func TestSinkRingWrap(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Emit(send(uint64(i), msg.GetShared, 0, 1, msg.Addr(i*128), 2))
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	evs := s.Events()
	if len(evs) != 4 || evs[0].Addr != 6*128 || evs[3].Addr != 9*128 {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	// Metrics must cover all ten, not just the retained window.
	if s.M.ByKind[KindSend] != 10 {
		t.Fatalf("metrics count = %d, want 10", s.M.ByKind[KindSend])
	}
}

func TestSinkCapacityModes(t *testing.T) {
	none := NewSink(0)
	none.Emit(send(1, msg.GetShared, 0, 1, 0x100, 1))
	if len(none.Events()) != 0 || none.Total() != 1 || none.M.Events != 1 {
		t.Fatalf("capacity-0 sink misbehaved: %d events, total %d", len(none.Events()), none.Total())
	}
	unbounded := NewSink(-1)
	for i := 0; i < 5000; i++ {
		unbounded.Emit(send(uint64(i), msg.GetShared, 0, 1, 0x100, 1))
	}
	if len(unbounded.Events()) != 5000 {
		t.Fatalf("unbounded sink retained %d events", len(unbounded.Events()))
	}
}

func TestTapSeesEveryEvent(t *testing.T) {
	s := NewSink(2)
	var tapped int
	s.Tap = func(e Event) { tapped++ }
	for i := 0; i < 7; i++ {
		s.Emit(send(uint64(i), msg.Update, 0, 1, 0x100, 2))
	}
	if tapped != 7 {
		t.Fatalf("tap saw %d events, want 7", tapped)
	}
	// OnEvent chains after the existing tap, in registration order.
	var order []string
	s.OnEvent(func(Event) { order = append(order, "a") })
	s.OnEvent(func(Event) { order = append(order, "b") })
	s.Emit(send(8, msg.Update, 0, 1, 0x100, 2))
	if tapped != 8 || strings.Join(order, "") != "ab" {
		t.Fatalf("chained taps: tapped %d, order %v", tapped, order)
	}
}

func TestDelegationSpanPairing(t *testing.T) {
	s := NewSink(64)
	addr := msg.Addr(0x1000)
	// Two full delegations to the same producer, causes b then c.
	s.Emit(Event{At: 5, Kind: KindPCDetect, Node: 0, Addr: addr})
	s.Emit(Event{At: 10, Kind: KindDelegate, Node: 0, Addr: addr, Arg: 2})
	s.Emit(Event{At: 20, Kind: KindDelegateInstall, Node: 2, Addr: addr, Arg: 1})
	s.Emit(Event{At: 30, Kind: KindUndelegate, Node: 2, Addr: addr, Arg: uint64(stats.UndelFlush)})
	s.Emit(Event{At: 40, Kind: KindUndelegateCommit, Node: 0, Addr: addr, Arg: 2})
	s.Emit(Event{At: 50, Kind: KindDelegate, Node: 0, Addr: addr, Arg: 2})
	s.Emit(Event{At: 60, Kind: KindDelegateInstall, Node: 2, Addr: addr, Arg: 1})
	s.Emit(Event{At: 70, Kind: KindUndelegate, Node: 2, Addr: addr, Arg: uint64(stats.UndelRemoteWrite)})

	l := s.M.Lines[addr]
	if l == nil || !l.PCDetected || l.PCDetectAt != 5 {
		t.Fatalf("line timeline missing PC detection: %+v", l)
	}
	if len(l.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(l.Spans))
	}
	a, b := l.Spans[0], l.Spans[1]
	if !a.Complete() || a.Cause != stats.UndelFlush || !a.Committed || a.CommittedAt != 40 {
		t.Fatalf("span 1 wrong: %+v", a)
	}
	if !b.Complete() || b.Cause != stats.UndelRemoteWrite || b.Committed {
		t.Fatalf("span 2 wrong: %+v", b)
	}
	if s.M.CompleteDelegations() != 2 {
		t.Fatalf("CompleteDelegations = %d", s.M.CompleteDelegations())
	}
}

// TestHopAndByteAccounting checks that every send instant in the export
// carries its route length and wire size, and that the traffic summary
// is the run's stats.
func TestHopAndByteAccounting(t *testing.T) {
	s := NewSink(-1)
	st := stats.New()
	for _, e := range []Event{
		send(1, msg.GetShared, 0, 1, 0x100, 1),   // header only
		send(2, msg.SharedReply, 1, 0, 0x100, 1), // carries data
		send(3, msg.GetShared, 0, 9, 0x200, 2),
	} {
		s.Emit(e)
		st.RecordMsg(&e.Msg)
		st.RecordHops(int(e.Hops))
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, s, st); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Ts   uint64         `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	evs := s.Events()
	n := 0
	for _, te := range doc.TraceEvents {
		if te.Cat != "msg" {
			continue
		}
		e := evs[n]
		if te.Ts != uint64(e.At) || te.Args["hops"] != float64(e.Hops) || te.Args["bytes"] != float64(e.Bytes) {
			t.Fatalf("send %d exported as %+v, want hops %d bytes %d", n, te, e.Hops, e.Bytes)
		}
		n++
	}
	if n != len(evs) {
		t.Fatalf("%d send instants, want %d", n, len(evs))
	}
	wantBytes := float64(msg.HeaderBytes*2 + msg.HeaderBytes + msg.LineBytes)
	if doc.Metadata["total_bytes"] != wantBytes {
		t.Fatalf("metadata total_bytes = %v, want %v", doc.Metadata["total_bytes"], wantBytes)
	}
	if got := doc.Metadata["avg_hops"].(float64); got != st.AvgHops() || got < 1.33 || got > 1.34 {
		t.Fatalf("metadata avg_hops = %v, want ~4/3", got)
	}
}

func TestMSHRPeakTracking(t *testing.T) {
	s := NewSink(0)
	s.Emit(Event{At: 1, Kind: KindMissStart, Node: 0, Addr: 0x100, Arg: 1})
	s.Emit(Event{At: 2, Kind: KindMissStart, Node: 1, Addr: 0x200, Arg: 1})
	s.Emit(Event{At: 3, Kind: KindMissEnd, Node: 0, Addr: 0x100, Arg: 0, Arg2: uint64(stats.MissRemote2Hop)})
	s.Emit(Event{At: 4, Kind: KindMissEnd, Node: 1, Addr: 0x200, Arg: 0, Arg2: uint64(stats.MissRemote3Hop)})
	if s.M.MSHRPeak != 2 {
		t.Fatalf("MSHRPeak = %d, want 2", s.M.MSHRPeak)
	}
}

// TestEmitZeroAlloc pins the enabled-path allocation claim: counter-kind
// events into a preallocated ring allocate nothing.
func TestEmitZeroAlloc(t *testing.T) {
	s := NewSink(1024)
	e := send(1, msg.GetShared, 0, 1, 0x100, 2)
	allocs := testing.AllocsPerRun(1000, func() { s.Emit(e) })
	if allocs != 0 {
		t.Fatalf("Emit allocated %v times per event", allocs)
	}
}

func TestWritePerfetto(t *testing.T) {
	s := NewSink(-1)
	addr := msg.Addr(0x2000)
	s.Emit(send(5, msg.GetExcl, 1, 0, addr, 2))
	s.Emit(Event{At: 6, Kind: KindMissStart, Node: 1, Addr: addr, Arg: 1, Arg2: 1})
	s.Emit(Event{At: 10, Kind: KindDelegate, Node: 0, Addr: addr, Arg: 1})
	s.Emit(Event{At: 20, Kind: KindDelegateInstall, Node: 1, Addr: addr, Arg: 1})
	s.Emit(Event{At: 25, Kind: KindMissEnd, Node: 1, Addr: addr, Arg: 0, Arg2: uint64(stats.MissRemote2Hop)})
	s.Emit(Event{At: 30, Kind: KindUpdatePush, Node: 1, Addr: addr, Arg: 3, Arg2: 7})
	s.Emit(Event{At: 40, Kind: KindUndelegate, Node: 1, Addr: addr, Arg: uint64(stats.UndelRemoteWrite)})

	// Build the stats the run would have kept for the same events.
	st := stats.New()
	st.RecordMsg(&evsOf(s, KindSend)[0].Msg)
	st.Delegations = 1

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, s, st); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"delegated to n1"`, `"GetExcl"`, `"miss 0x2000"`, `"update-push"`,
		`"protocol nodes"`, `"cache lines"`, `"remote-write"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
	md := doc.Metadata
	if md["total_bytes"].(float64) != float64(msg.HeaderBytes) {
		t.Fatalf("metadata total_bytes = %v", md["total_bytes"])
	}
	if md["delegations"].(float64) != 1 {
		t.Fatalf("metadata delegations = %v", md["delegations"])
	}
}

func evsOf(s *Sink, k Kind) []Event {
	var out []Event
	for _, e := range s.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestWritePerfettoUnresolvedMissesSorted exports a window that ends with
// misses still outstanding, as after a failed or interrupted run: the
// clamped miss spans must come out in (node, addr) order and the
// document must be byte-identical across exports.
func TestWritePerfettoUnresolvedMissesSorted(t *testing.T) {
	s := NewSink(-1)
	for i := 0; i < 12; i++ {
		node := msg.NodeID((i * 5) % 4)
		addr := msg.Addr(0x1000 + ((i*7)%12)*msg.LineBytes)
		s.Emit(Event{At: sim.Time(10 + i), Kind: KindMissStart, Node: node, Addr: addr, Arg: 1})
	}
	export := func() []byte {
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, s, stats.New()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for i := 0; i < 5; i++ {
		if again := export(); !bytes.Equal(first, again) {
			t.Fatalf("export %d differs from the first", i+2)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	type key struct {
		node int
		addr string
	}
	var got []key
	for _, e := range doc.TraceEvents {
		if e.Args["class"] == "unresolved" {
			got = append(got, key{e.Tid, e.Name})
		}
	}
	if len(got) != 12 {
		t.Fatalf("%d unresolved miss spans, want 12", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		// Same-width hex names, so string order is address order.
		if a.node > b.node || (a.node == b.node && a.addr >= b.addr) {
			t.Fatalf("unresolved misses out of order at %d: %v then %v", i, a, b)
		}
	}
}

func TestEventString(t *testing.T) {
	// Every message type must render as a send naming its line.
	for ty := msg.Type(0); int(ty) < msg.NumTypes; ty++ {
		e := send(7, ty, 0, 1, 0x100, 1)
		out := e.String()
		if !strings.HasPrefix(out, "[         7] send "+ty.String()) || !strings.Contains(out, "line 0x100") {
			t.Fatalf("%v rendered as %q", ty, out)
		}
	}
	u := Event{At: 3, Kind: KindUndelegate, Node: 2, Addr: 0x80, Arg: uint64(stats.UndelFlush)}
	if got, want := u.String(), "[         3] undelegate n2 line 0x80 cause=flush"; got != want {
		t.Fatalf("undelegate rendered as %q, want %q", got, want)
	}
	d := Event{At: 4, Kind: KindDelegate, Node: 0, Addr: 0x80, Arg: 2}
	if got, want := d.String(), "[         4] delegate n0 line 0x80"; got != want {
		t.Fatalf("delegate rendered as %q, want %q", got, want)
	}
}

func TestWriteStories(t *testing.T) {
	s := NewSink(64)
	// Line 0x100: busy; line 0x200: delegated once.
	for i := 0; i < 5; i++ {
		s.Emit(send(uint64(i), msg.GetShared, 1, 0, 0x100, 1))
	}
	s.Emit(send(10, msg.Delegate, 0, 2, 0x200, 1))
	s.Emit(Event{At: 15, Kind: KindDelegateInstall, Node: 2, Addr: 0x300})
	s.Emit(send(20, msg.Undelegate, 2, 0, 0x200, 1))
	var buf bytes.Buffer
	WriteStories(&buf, s.Events())
	want := `line 0x100: 5 msgs over [0..4]
    GetShared        5
line 0x200: 2 msgs over [10..20], delegated 1x, undelegated 1x
    Delegate         1
    Undelegate       1
`
	if buf.String() != want {
		t.Fatalf("stories:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func BenchmarkEmitSend(b *testing.B) {
	s := NewSink(4096)
	e := send(1, msg.GetShared, 0, 1, 0x100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(e)
	}
}
