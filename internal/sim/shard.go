// Shard-group scheduling: conservative parallel discrete-event simulation
// over several Engines.
//
// A Group owns N shards, each a private Engine (its own timing wheel,
// sequence counter and message pool). Shards advance in lock-stepped
// conservative windows: at every barrier the coordinator computes
// T = min over shards of the next pending timestamp, then lets every
// shard execute its events in [T, T+lookahead) with no synchronization.
// The caller guarantees (by construction of the cross-shard channels,
// see internal/network's mailboxes) that an event created on shard A for
// shard B during a window carries a timestamp >= window end, and is only
// injected into B at the next barrier — so no shard ever receives work
// in its past, and a window's execution on shard B is independent of how
// far shard A has gotten within the same window.
//
// Two execution modes share this window structure:
//
//   - serial (the deterministic reference): the coordinator runs the
//     shards round-robin on its own goroutine;
//   - parallel: one worker goroutine per shard executes the window.
//
// Both produce identical results for the same shard count: a shard's
// window execution depends only on its own queue (deterministic (at,
// seq) order), and barrier work runs single-threaded on the coordinator
// in registration order either way.
package sim

import (
	"sort"
	"sync"
	"sync/atomic"

	"pccsim/internal/msg"
)

// Group coordinates a set of shard Engines through conservative time
// windows. Methods on Group are coordinator-side: they must not be
// called while a parallel window is executing (Engine methods on a shard
// mid-window belong exclusively to that shard's worker).
type Group struct {
	engs     []*Engine
	look     Time
	parallel bool
	hooks    []func()

	// dead is the deadline of the window being dispatched, the same for
	// every shard; windows counts the windows dispatched so far.
	dead    Time
	windows uint64

	// Parallel-run machinery, alive only inside RunGuarded.
	cmds    []chan windowJob
	results chan windowResult

	// intr, when armed via SetInterrupt, is polled at every window
	// barrier; see Engine.SetInterrupt for the contract.
	intr *atomic.Bool
}

type windowJob struct {
	deadline Time
	budget   uint64
}

type windowResult struct {
	shard int
	steps uint64
	pan   any // non-nil if the window panicked on this shard
}

// NewGroup creates a group of shards fresh Engines synchronized with the
// given lookahead (clamped up to 1). parallel selects worker-goroutine
// execution; with one shard or parallel=false the group runs serially on
// the caller's goroutine.
func NewGroup(shards int, lookahead Time, parallel bool) *Group {
	if shards < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead < 1 {
		lookahead = 1
	}
	g := &Group{
		engs:     make([]*Engine, shards),
		look:     lookahead,
		parallel: parallel && shards > 1,
	}
	for i := range g.engs {
		g.engs[i] = NewEngine()
	}
	return g
}

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.engs) }

// Engine returns shard i's private engine.
func (g *Group) Engine(i int) *Engine { return g.engs[i] }

// Lookahead returns the conservative window width.
func (g *Group) Lookahead() Time { return g.look }

// Parallel reports whether windows execute on worker goroutines.
func (g *Group) Parallel() bool { return g.parallel }

// OnBarrier registers fn to run at every window barrier, before the next
// window is chosen. Hooks run on the coordinator goroutine with no shard
// executing, in registration order; they are where cross-shard mailboxes
// drain and per-shard buffers merge. A hook may schedule new events into
// any shard's engine.
func (g *Group) OnBarrier(fn func()) { g.hooks = append(g.hooks, fn) }

// SetInterrupt arms the group with a cancellation flag shared with other
// goroutines: RunGuarded polls it at every window barrier and stops with
// ErrInterrupted when it is set. nil (the default) disarms the check. The
// flag never perturbs event order within or across windows.
func (g *Group) SetInterrupt(flag *atomic.Bool) { g.intr = flag }

// Windows reports how many conservative windows have been dispatched:
// one coordinator barrier each.
func (g *Group) Windows() uint64 { return g.windows }

// Now reports the simulation clock: the furthest shard's local time.
func (g *Group) Now() Time {
	var t Time
	for _, e := range g.engs {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Steps reports events executed, summed over shards.
func (g *Group) Steps() uint64 {
	var n uint64
	for _, e := range g.engs {
		n += e.Steps()
	}
	return n
}

// Pending reports queued events, summed over shards.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engs {
		n += e.Pending()
	}
	return n
}

// NextAt reports the earliest pending timestamp across all shards.
func (g *Group) NextAt() (Time, bool) {
	var best Time
	ok := false
	for _, e := range g.engs {
		if at, has := e.NextAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// ForEachPending visits every queued event on every shard, in shard
// order (queue order within a shard, as Engine.ForEachPending). m is nil
// for closure events.
func (g *Group) ForEachPending(visit func(at Time, m *msg.Message)) {
	for _, e := range g.engs {
		e.ForEachPending(visit)
	}
}

// PendingCensus aggregates Engine.PendingCensus over all shards: counts
// per message type plus the closure pseudo-entry, most frequent first
// (ties by name), matching the single-engine ordering.
func (g *Group) PendingCensus() []MsgCount {
	merged := map[string]int{}
	for _, e := range g.engs {
		for _, c := range e.PendingCensus() {
			merged[c.Type] += c.Count
		}
	}
	out := make([]MsgCount, 0, len(merged))
	for t, c := range merged {
		out = append(out, MsgCount{Type: t, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// Run executes until every shard's queue is empty and returns the final
// clock (max over shards).
func (g *Group) Run() Time {
	t, _ := g.RunGuarded(0)
	return t
}

// RunUntil executes events with timestamps <= deadline across all
// shards, honoring the window protocol (barrier hooks run between
// windows so cross-shard traffic keeps flowing). It reports whether
// every queue drained. RunUntil always executes serially — it is a
// debugging/stepping interface, and serial execution keeps the pause
// points deterministic.
func (g *Group) RunUntil(deadline Time) bool {
	for {
		for _, fn := range g.hooks {
			fn()
		}
		next, ok := g.NextAt()
		if !ok {
			return true
		}
		if next > deadline {
			return false
		}
		g.dead = min(next+g.look-1, deadline)
		g.windows++
		g.runWindowSerial(0)
	}
}

// RunGuarded executes windows until every queue drains or maxSteps total
// events have run (0 = unlimited). On a runaway it returns a
// *RunawayError aggregated across shards: summed pending counts, merged
// census, min next timestamp, max clock.
func (g *Group) RunGuarded(maxSteps uint64) (Time, error) {
	run := g.runWindowSerial
	if g.parallel {
		stop := g.startWorkers()
		defer stop()
		run = g.runWindowParallel
	}
	var executed uint64
	for {
		// Hooks first: they drain cross-shard mailboxes, so a group
		// whose engines look empty may still have work in flight.
		for _, fn := range g.hooks {
			fn()
		}
		next, ok := g.NextAt()
		if !ok {
			return g.Now(), nil
		}
		if g.intr != nil && g.intr.Load() {
			return g.Now(), ErrInterrupted
		}
		if maxSteps > 0 && executed >= maxSteps {
			return g.Now(), g.runawayError(executed, next)
		}
		var budget uint64
		if maxSteps > 0 {
			budget = maxSteps - executed
		}
		// The classic conservative window: no event another shard sends
		// during it can arrive inside it.
		g.dead = next + g.look - 1
		g.windows++
		// In parallel mode each worker receives the full remaining
		// budget, so the group can overshoot maxSteps by up to
		// (shards-1)x within one window. The watchdog is a hang
		// detector, not an exact accountant; the overshoot is bounded
		// and the next barrier still trips the guard.
		executed += run(budget)
	}
}

func (g *Group) runawayError(executed uint64, next Time) error {
	return &RunawayError{
		Steps:      executed,
		TotalSteps: g.Steps(),
		Now:        g.Now(),
		Pending:    g.Pending(),
		NextAt:     next,
		Census:     g.PendingCensus(),
	}
}

// runWindowSerial executes one window (deadline g.dead) round-robin on
// the calling goroutine, giving each shard at most the remaining budget.
func (g *Group) runWindowSerial(budget uint64) uint64 {
	var total uint64
	for _, e := range g.engs {
		if budget > 0 && total >= budget {
			break
		}
		var b uint64
		if budget > 0 {
			b = budget - total
		}
		total += e.RunWindow(g.dead, b)
	}
	return total
}

// startWorkers launches one goroutine per shard, parked on a private
// command channel. The returned stop function closes the channels and
// joins the workers; RunGuarded defers it so workers never outlive a
// run (including a panicking one).
func (g *Group) startWorkers() (stop func()) {
	g.cmds = make([]chan windowJob, len(g.engs))
	g.results = make(chan windowResult, len(g.engs))
	var wg sync.WaitGroup
	for i := range g.engs {
		g.cmds[i] = make(chan windowJob, 1)
		wg.Add(1)
		go func(shard int, e *Engine, cmds <-chan windowJob) {
			defer wg.Done()
			for job := range cmds {
				steps, pan := runWindowCatch(e, job)
				g.results <- windowResult{shard: shard, steps: steps, pan: pan}
			}
		}(i, g.engs[i], g.cmds[i])
	}
	return func() {
		for _, c := range g.cmds {
			close(c)
		}
		wg.Wait()
		g.cmds, g.results = nil, nil
	}
}

// runWindowCatch runs one window on a worker, converting a panic into a
// value so the coordinator can re-raise it after every shard has parked
// (re-raising immediately would leave sibling workers running over
// state the panic handler may inspect).
func runWindowCatch(e *Engine, job windowJob) (steps uint64, pan any) {
	defer func() {
		if r := recover(); r != nil {
			pan = r
		}
	}()
	return e.RunWindow(job.deadline, job.budget), nil
}

// runWindowParallel dispatches the window (deadline g.dead) to every
// shard that has work inside it and waits for all of them. If any shard panicked, the lowest-numbered shard's panic is
// re-raised — a deterministic choice, so a failure reproduces identically
// under the serial scheduler (which reaches the lowest shard's panic
// first by construction).
func (g *Group) runWindowParallel(budget uint64) uint64 {
	dispatched := 0
	for i, e := range g.engs {
		if at, ok := e.NextAt(); ok && at <= g.dead {
			g.cmds[i] <- windowJob{deadline: g.dead, budget: budget}
			dispatched++
		}
	}
	var total uint64
	panShard, panVal := -1, any(nil)
	for k := 0; k < dispatched; k++ {
		r := <-g.results
		total += r.steps
		if r.pan != nil && (panShard < 0 || r.shard < panShard) {
			panShard, panVal = r.shard, r.pan
		}
	}
	if panShard >= 0 {
		panic(panVal)
	}
	return total
}
