package sim

import "runtime"

// Pool owns one reusable round engine. Building a Network is cheap in
// principle, but every NewNetwork call re-allocates the per-node tables,
// delivery counters and inbox slab arenas, and spawns a fresh worker
// pool for node steps — for callers that run many short executions back to back (the
// long-lived renaming service runs one per epoch), that setup dominates
// the run itself. Acquire leases the pooled engine instead: reset wipes
// the per-run state but keeps every allocation and every parked worker
// goroutine, so steady-state executions reuse them all.
//
// The lease contract is strictly serial: one outstanding Network per
// Pool. Acquire while the engine is leased (or after Close, or on a nil
// Pool) degrades gracefully to a fresh NewNetwork, so correctness never
// depends on disciplined Release — only reuse does. Pooled executions
// are bit-identical to fresh ones; the pooled-vs-fresh determinism test
// pins that.
type Pool struct {
	eng    *engine
	leased bool
	closed bool
}

// NewPool returns an empty pool. Call Close to release the engine's
// worker goroutines; a finalizer covers pools dropped without Close.
func NewPool() *Pool {
	p := &Pool{}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// Acquire returns a Network over nodes, backed by the pooled engine when
// it is free and by a fresh one otherwise (nil pool, closed pool, or an
// earlier lease still outstanding). Closing the returned Network returns
// the engine to the pool instead of killing its workers.
func (p *Pool) Acquire(nodes []Node, opts ...Option) *Network {
	if p == nil || p.closed || p.leased {
		return NewNetwork(nodes, opts...)
	}
	if p.eng == nil {
		p.eng = &engine{}
	}
	e := p.eng
	e.reset(nodes)
	for _, opt := range opts {
		opt(e)
	}
	e.finishSetup()
	p.leased = true
	// The pool pointer lives on the Network handle, not the engine:
	// worker goroutines reference the engine, and an engine→pool edge
	// would keep the Pool reachable forever, so its finalizer could
	// never reclaim the workers.
	nw := &Network{engine: e, pool: p}
	runtime.SetFinalizer(nw, (*Network).Close)
	return nw
}

// release returns the engine to the pool; called by Network.Close. If
// the pool was closed while the lease was outstanding, the engine's
// workers are torn down now instead.
func (p *Pool) release() {
	p.leased = false
	if p.closed && p.eng != nil {
		p.eng.close()
	}
}

// Close shuts down the pooled engine's worker goroutines. Idempotent and
// nil-safe. An outstanding lease keeps working: its engine is torn down
// when that Network is closed (or collected) rather than immediately.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	if !p.leased && p.eng != nil {
		p.eng.close()
	}
	runtime.SetFinalizer(p, nil)
}
