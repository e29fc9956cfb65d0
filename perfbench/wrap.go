package main

import (
	"sync/atomic"
	"time"

	"renaming/internal/sim"
)

// ledger accumulates the traced run's spans and counts. Spans are
// recorded from outside the program, around calls into each layer's
// public functions: node constructors, the network's constructor,
// StepRound, node Step and quiescence polls, the crash adversary, its
// mid-send filters and the round-digest callback. All durations are in
// nanoseconds since base.
type ledger struct {
	base time.Time

	ops     int
	wholeNs int64

	buildNs, buildAlloc  int64
	acquireNs, releaseNs int64
	roundNs, haltNs      int64
	crashesNs, filterNs  int64
	digestNs             int64

	orders, midsend, filterEvals, filterKeeps, digests int64
	steps, stepNs, polls, idle                         int64
	msgs, rounds                                       int64

	// Step spans can overlap when the engine steps shards in parallel;
	// stepBusy is the union of the spans (time with at least one Step
	// running), so the ledger's self times add up to wall time.
	stepBusy  atomic.Int64
	inflight  atomic.Int32
	busyStart atomic.Int64

	// Per-run state: the node wrappers whose counters collect folds in,
	// and the crash adversary's call marks (the service workload brackets
	// its inner run's rounds with them).
	wraps             []*nodeWrap
	advCalls          int
	firstAdv, lastAdv int64
}

func newLedger() *ledger { return &ledger{base: time.Now()} }

func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// collect folds the current run's node counters into the totals.
func (l *ledger) collect() {
	for _, w := range l.wraps {
		l.steps += w.steps
		l.stepNs += w.stepNs
		l.polls += w.polls
		l.idle += w.idle
	}
	l.wraps = l.wraps[:0]
	l.advCalls = 0
}

// nodeWrap times a node's Step calls and counts its quiescence polls.
// The engine steps each node from at most one goroutine per round, with
// a barrier between rounds, so the per-node counters need no locking.
type nodeWrap struct {
	inner  sim.Node
	l      *ledger
	steps  int64
	stepNs int64
	polls  int64
	idle   int64
}

func (w *nodeWrap) Step(round int, inbox []sim.Message) sim.Outbox {
	l := w.l
	t0 := l.now()
	if l.inflight.Add(1) == 1 {
		l.busyStart.Store(t0)
	}
	out := w.inner.Step(round, inbox)
	t1 := l.now()
	start := l.busyStart.Load()
	if l.inflight.Add(-1) == 0 {
		l.stepBusy.Add(t1 - start)
	}
	w.steps++
	w.stepNs += t1 - t0
	return out
}

func (w *nodeWrap) Output() (int, bool) { return w.inner.Output() }
func (w *nodeWrap) Halted() bool        { return w.inner.Halted() }

func (w *nodeWrap) poll(idle bool) bool {
	w.polls++
	if idle {
		w.idle++
	}
	return idle
}

// The optional node interfaces, forwarded one each, so a wrapper can
// be assembled with exactly the set the wrapped node implements.
type quiet struct {
	w *nodeWrap
	q sim.Quiescent
}

func (x quiet) Quiescent() bool { return x.w.poll(x.q.Quiescent()) }

type quietAt struct {
	w *nodeWrap
	q sim.ScheduleQuiescent
}

func (x quietAt) QuiescentAt(round int) bool { return x.w.poll(x.q.QuiescentAt(round)) }

type setUser struct{ u sim.SetUser }

func (x setUser) UseSets(s *sim.Sets) { x.u.UseSets(s) }

// wrapNode returns a timed wrapper around n that implements exactly the
// optional interfaces (Quiescent, ScheduleQuiescent, SetUser) n does:
// the engine type-asserts them, so an extra or a missing one would
// change what it runs.
func (l *ledger) wrapNode(n sim.Node) sim.Node {
	w := &nodeWrap{inner: n, l: l}
	l.wraps = append(l.wraps, w)
	q, hasQ := n.(sim.Quiescent)
	qa, hasQA := n.(sim.ScheduleQuiescent)
	su, hasSU := n.(sim.SetUser)
	Q, QA, SU := quiet{w, q}, quietAt{w, qa}, setUser{su}
	switch {
	case hasQ && hasQA && hasSU:
		return struct {
			*nodeWrap
			quiet
			quietAt
			setUser
		}{w, Q, QA, SU}
	case hasQ && hasQA:
		return struct {
			*nodeWrap
			quiet
			quietAt
		}{w, Q, QA}
	case hasQ && hasSU:
		return struct {
			*nodeWrap
			quiet
			setUser
		}{w, Q, SU}
	case hasQA && hasSU:
		return struct {
			*nodeWrap
			quietAt
			setUser
		}{w, QA, SU}
	case hasQ:
		return struct {
			*nodeWrap
			quiet
		}{w, Q}
	case hasQA:
		return struct {
			*nodeWrap
			quietAt
		}{w, QA}
	case hasSU:
		return struct {
			*nodeWrap
			setUser
		}{w, SU}
	default:
		return w
	}
}

// advWrap times the crash adversary, counts its orders and wraps each
// mid-send filter it installs. The engine consults the adversary once
// per round on the coordinator, so the call marks also delimit rounds.
type advWrap struct {
	inner sim.CrashAdversary
	l     *ledger
}

func (l *ledger) wrapAdversary(adv sim.CrashAdversary) sim.CrashAdversary {
	return &advWrap{inner: adv, l: l}
}

func (a *advWrap) Crashes(view sim.View) []sim.CrashOrder {
	l := a.l
	t0 := l.now()
	orders := a.inner.Crashes(view)
	t1 := l.now()
	l.crashesNs += t1 - t0
	if l.advCalls == 0 {
		l.firstAdv = t0
	}
	l.lastAdv = t0
	l.advCalls++
	if len(orders) == 0 {
		return orders
	}
	wrapped := make([]sim.CrashOrder, len(orders))
	for i, o := range orders {
		l.orders++
		if o.Filter != nil {
			l.midsend++
			o.Filter = l.wrapFilter(o.Filter)
		}
		wrapped[i] = o
	}
	return wrapped
}

// wrapFilter times and counts a mid-send filter's verdicts. The engine
// evaluates filters sequentially on the coordinator.
func (l *ledger) wrapFilter(f sim.SendFilter) sim.SendFilter {
	return func(to int) bool {
		t0 := l.now()
		keep := f(to)
		l.filterNs += l.now() - t0
		l.filterEvals++
		if keep {
			l.filterKeeps++
		}
		return keep
	}
}

// wrapDigest times the round-digest telemetry callback.
func (l *ledger) wrapDigest(fn func(sim.RoundDigest)) func(sim.RoundDigest) {
	return func(d sim.RoundDigest) {
		t0 := l.now()
		fn(d)
		l.digestNs += l.now() - t0
		l.digests++
	}
}
