package obs

import (
	"pccsim/internal/msg"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Metrics aggregates what the event stream alone can tell: event counts
// by kind, the MSHR occupancy peak and the per-line delegation and update
// timelines. It is updated live on each Emit, so it stays exact even
// after the event ring wraps. The run's traffic, hop, delegation and
// update counters live in stats.Stats only; TestEventStreamMatchesStats
// pins the stream to them.
type Metrics struct {
	// Events counts every emitted event; ByKind breaks them down.
	Events uint64
	ByKind [NumKinds]uint64

	// MSHRPeak is the peak number of miss transactions outstanding
	// across all nodes at once.
	MSHRPeak    uint64
	outstanding uint64

	// Lines holds the per-line timelines, keyed by line address.
	Lines map[msg.Addr]*Line
}

// Line is the observed lifecycle of one cache line.
type Line struct {
	Addr msg.Addr
	// PCDetected records the first time the home's detector classified
	// the line producer-consumer.
	PCDetected bool
	PCDetectAt sim.Time
	// Spans is the delegation history in time order.
	Spans []Span
	// Speculative-update outcomes for this line.
	Pushes, Hits, Wastes uint64
}

// Span is one delegation: home detect -> DELE install at the producer ->
// undelegate (with its §2.3.3 cause) -> commit back at the home. The
// *At fields are valid when the corresponding flag is set; a span whose
// Undelegated flag is clear was still delegated when the run ended.
type Span struct {
	Producer msg.NodeID

	Detected   bool
	DetectedAt sim.Time

	Installed   bool
	InstalledAt sim.Time

	Undelegated   bool
	UndelegatedAt sim.Time
	Cause         stats.UndelegateReason

	Committed   bool
	CommittedAt sim.Time
}

// Complete reports whether the span covers the full
// detect -> DELE -> undelegate sequence.
func (s *Span) Complete() bool { return s.Detected && s.Installed && s.Undelegated }

func (m *Metrics) init() {
	m.Lines = make(map[msg.Addr]*Line)
}

// line returns (allocating if needed) the timeline for addr.
func (m *Metrics) line(addr msg.Addr) *Line {
	l := m.Lines[addr]
	if l == nil {
		l = &Line{Addr: addr}
		m.Lines[addr] = l
	}
	return l
}

// observe folds one event into the aggregates.
func (m *Metrics) observe(e *Event) {
	m.Events++
	m.ByKind[e.Kind]++
	switch e.Kind {
	case KindMissStart:
		m.outstanding++
		if m.outstanding > m.MSHRPeak {
			m.MSHRPeak = m.outstanding
		}
	case KindMissEnd:
		if m.outstanding > 0 {
			m.outstanding--
		}
	case KindPCDetect:
		l := m.line(e.Addr)
		if !l.PCDetected {
			l.PCDetected = true
			l.PCDetectAt = e.At
		}
	case KindDelegate:
		l := m.line(e.Addr)
		l.Spans = append(l.Spans, Span{
			Producer: msg.NodeID(e.Arg), Detected: true, DetectedAt: e.At,
		})
	case KindDelegateInstall:
		if s := m.openSpan(e.Addr, e.Node, func(s *Span) bool { return !s.Installed }); s != nil {
			s.Installed = true
			s.InstalledAt = e.At
		}
	case KindUndelegate:
		if s := m.openSpan(e.Addr, e.Node, func(s *Span) bool { return !s.Undelegated }); s != nil {
			s.Undelegated = true
			s.UndelegatedAt = e.At
			s.Cause = stats.UndelegateReason(e.Arg)
		}
	case KindUndelegateCommit:
		if s := m.openSpan(e.Addr, msg.NodeID(e.Arg), func(s *Span) bool { return !s.Committed }); s != nil {
			s.Committed = true
			s.CommittedAt = e.At
		}
	case KindUpdatePush:
		m.line(e.Addr).Pushes++
	case KindUpdateHit:
		m.line(e.Addr).Hits++
	case KindUpdateWaste:
		m.line(e.Addr).Wastes++
	}
}

// openSpan finds the earliest span for (addr, producer) still matching
// open, so lifecycle stages attach to their own delegation even when a
// line is re-delegated to the same producer.
func (m *Metrics) openSpan(addr msg.Addr, producer msg.NodeID, open func(*Span) bool) *Span {
	l := m.Lines[addr]
	if l == nil {
		return nil
	}
	for i := range l.Spans {
		if l.Spans[i].Producer == producer && open(&l.Spans[i]) {
			return &l.Spans[i]
		}
	}
	return nil
}

// CompleteDelegations counts full detect -> DELE -> undelegate sequences.
func (m *Metrics) CompleteDelegations() int {
	n := 0
	for _, l := range m.Lines {
		for i := range l.Spans {
			if l.Spans[i].Complete() {
				n++
			}
		}
	}
	return n
}
