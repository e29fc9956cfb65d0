package sim

import (
	"fmt"
	"runtime"
	"sort"
)

// engine is the round engine behind Network: a persistent, sharded worker
// pool that steps nodes in-place and routes messages through reusable
// per-node inboxes. It is built for the scaling sweeps (n = 16384/32768):
// the per-round cost is O(messages) with near-zero allocations, no
// per-node goroutines, and no sorting.
//
// A round runs in four phases, each executed shard-parallel behind a
// barrier:
//
//	step     every shard steps its alive (non-rushing) nodes in-place;
//	         the coordinator then steps rushing nodes (wave 2) and
//	         evaluates mid-send crash filters sequentially, so stateful
//	         filters consume shared randomness in the exact order the
//	         sequential engine did;
//	count    every shard walks its nodes' outboxes, bumping a per-worker
//	         × per-recipient counter and accumulating metrics into a
//	         per-shard accumulator (lock-free: shards touch disjoint
//	         cells);
//	deliver  every shard turns the counters for *its recipients* into
//	         exclusive prefix offsets and carves this round's inbox views
//	         out of the shard's slab — a counting sort by sender,
//	         exploiting that worker w's senders all precede worker w+1's;
//	scatter  every shard writes its surviving messages into the
//	         recipients' inboxes at the precomputed offsets.
//
// Because offsets are assigned in (worker, sender, emission) order, every
// inbox comes out sorted by sender link with per-sender emission order
// preserved — byte-identical to the previous engine's append-then-stable-
// sort delivery, at every worker count.
//
// Inbox storage is slab-allocated (see inboxSlab): per round and worker,
// one arena holds every incoming message of the shard's recipients, and
// the per-recipient tables hold views into it. Two slabs per worker
// alternate by round parity — round r's views are read during round r+1
// while round r+1 fills the other slab — and reuse is generation-stamped:
// a recipient's view is only meaningful when its stamp matches the
// current fill, so idle recipients are never touched during delivery and
// their (stale) views are simply never read. docs/MEMORY.md documents
// the resulting memory model.
type engine struct {
	nodes   []Node
	quiet   []Quiescent         // nodes[i] as Quiescent, nil if not implemented
	quietAt []ScheduleQuiescent // nodes[i] as ScheduleQuiescent, nil if not implemented
	alive   []bool
	adv     CrashAdversary
	metrics *Metrics
	peek    func(node int) any

	// crashedAt remembers the round each node crashed in, -1 if alive.
	crashedAt []int
	byzantine []bool
	rushing   []bool
	rushList  []int // indices with rushing set, ascending (frozen at setup)
	round     int
	observer  func(round int, delivered []Message)
	digest    func(RoundDigest)
	// digestKinds is the reused per-round kind map passed (by reference)
	// inside RoundDigest; consumers must not retain it across calls.
	digestKinds map[string]int64

	// Worker pool. workers is the resolved shard count P; worker 0 is the
	// coordinator (the StepRound caller), workers 1..P-1 are long-lived
	// goroutines parked on their cmd channel between phases. spawned
	// counts the goroutines actually started; a pooled engine reused at a
	// larger n spawns only the delta.
	reqWorkers int // WithEngineWorkers override; 0 = GOMAXPROCS
	workers    int
	shardLo    []int
	shardHi    []int
	spawned    int
	closed     bool
	cmd        []chan int
	ack        chan struct{}
	panics     []any

	// Adaptive collapse: rounds with little traffic run on the
	// coordinator alone (active = 1), skipping the four barrier
	// handshakes whose wakeup latency dwarfs the actual work at small
	// scales — the committee loop of the Byzantine algorithm moves a few
	// hundred messages per round, ~microseconds of routing. Heavy rounds
	// (all-to-all baselines, announce/distribute fan-outs, the 16384+
	// sweeps) still fan out across the pool. Results are bit-identical at
	// every worker count, so flipping per round is unobservable; an
	// explicit WithEngineWorkers pin disables the collapse so tests can
	// exercise a chosen path. lastMsgs (messages counted in the previous
	// round) is the traffic predictor.
	adaptive bool
	active   int
	lastMsgs int64

	// stepped lists the senders that acted this round, ascending, and
	// prevStepped the round before — coordinator-only rounds use them to
	// reset and walk only those entries instead of scanning all n nodes
	// in every phase. Ascending order matters: scatter assigns inbox
	// slots in sender order.
	stepped     []int
	prevStepped []int
	mergeBuf    []int
	prevFull    bool // last round ran parallel: acted/outs need a full reset

	// Per-round state, all reused across rounds. The inbox tables hold
	// views into the parity-alternating slabs; a view is only meaningful
	// when its generation stamp matches the round that filled it (see
	// inboxOf), so entries of idle recipients go stale instead of being
	// reset.
	inboxes [][]Message // delivered this round, per recipient (slab views)
	nextInb [][]Message // being filled for next round (slab views)
	inbGen  []uint32    // per recipient: fill stamp of inboxes[i]
	nextGen []uint32    // per recipient: fill stamp of nextInb[i]
	slabs   [2][]inboxSlab
	outs    []Outbox  // per sender: this round's outbox (nil if idle)
	acted   []bool    // per sender: stepped this round
	counts  [][]int32 // per worker × recipient: count, then offset
	shards  []metricShard

	// recip lists the recipients with incoming traffic this round,
	// discovery-ordered, and prevRecip the round before — the delivery
	// analogue of stepped/prevStepped: coordinator-only rounds reset and
	// walk only those counter cells instead of scanning all n recipients.
	recip      []int
	prevRecip  []int
	countsFull bool // last round ran parallel: counts[0] needs a full reset

	aliveView   []bool
	filters     map[int]SendFilter
	filterOrder []int
	previews    map[int][]Message
	rushInbox   []Message
	delivered   []Message

	// survivors is the arena mid-send crash filtering compacts filtered
	// outboxes into: each crasher's surviving wire messages, shared
	// entries (ToAll, ToSet) written out per recipient. It is sized once
	// per round to the filtered senders' total wire count and reclaimed
	// at the next evalFilters call, after phaseStep has dropped all
	// outbox references.
	survivors []Message
	roundEnd  []func() // coordinator hooks run at the end of every round

	// Shared-aggregate delivery (ToAll broadcasts and ToSet multicasts).
	// A sender whose round outbox is exactly one shared entry (after
	// mid-send compaction: a filter that kept everything leaves it shared)
	// is recorded in its worker's sharedRecs instead of the per-recipient
	// counters; planShared (coordinator, between count and deliver) carves
	// one aggregate segment per distinct shared target out of the parity
	// aggregate slab and precomputes per-worker scatter cursors, so the
	// segment comes out in global sender order. Recipients whose only
	// traffic is a single segment are *bound* to it zero-copy (boundGen
	// marks them — their view still carries the sender's To sentinel);
	// recipients with several sources are merged into per-worker merge
	// slabs by the phMerge phase. See docs/MEMORY.md.
	sets           *Sets
	eagerMulticast bool
	sharedRecs     [][]sharedRec // per worker: pure-shared senders, ascending
	sharedCur      [][]int32     // per worker × active set: scatter cursor
	actSets        []actSet      // this round's distinct shared targets
	aggSlabs       [2]inboxSlab  // aggregate segments, by round parity
	aggBuf         []Message     // this round's aggregate slab fill
	aggActive      bool
	srcSet         []int32   // per recipient: actSets index of its named source
	srcGen         []uint32  // stamp for srcSet
	boundGen       []uint32  // per recipient: stamp when nextInb[i] is a raw segment
	clsGen         []uint32  // per recipient: classification-done stamp
	mergeList      [][]int32 // per worker: recipients needing a k-way merge
	mergeSlabs     [2][]inboxSlab
	wexpand        []expandPool // per worker: mixed-outbox expansion buffers
}

// sharedRec records one pure-shared sender for the scatter cursors:
// target is the set id, or -1 for ToAll.
type sharedRec struct {
	from   int32
	target int32
}

// actSet is one distinct shared target active this round: its aggregate
// segment (a sender-ordered view into the aggregate slab) and layout.
type actSet struct {
	id    int // set id, -1 for ToAll
	start int
	total int
	seg   []Message
}

// expandPool is one worker's buffer pool for expanding mixed outboxes
// (shared entries alongside others) into explicit messages during the
// count phase; buffers are reclaimed at the worker's next count phase,
// after the round's outbox references are gone.
type expandPool struct {
	bufs [][]Message
	used int
}

// Phase identifiers dispatched to the worker pool.
const (
	phStep = iota
	phCount
	phDeliver
	phScatter
	phMerge
)

// inboxSlab is one worker's per-parity message arena: each round the
// deliver phase carves every recipient view of the worker's shard out of
// a single contiguous buffer, instead of growing (and retaining) one
// slice per recipient. fills counts refills, for MemStats.
type inboxSlab struct {
	buf   []Message
	fills uint32
}

// fill returns a buffer of exactly total messages, growing the arena
// with 25% headroom when capacity is short. The previous contents are
// garbage by construction: views carved two rounds ago are dead (their
// round has been fully consumed), and any still-recorded view of them
// fails its generation check before it can be read.
func (s *inboxSlab) fill(total int) []Message {
	if cap(s.buf) < total {
		s.buf = make([]Message, total+total/4)
	}
	s.fills++
	return s.buf[:total]
}

func newEngine(nodes []Node) *engine {
	e := &engine{}
	e.reset(nodes)
	return e
}

// growSpan returns s resized to length n, reusing capacity when possible.
// Surviving contents are unspecified: callers reinitialize every entry
// they will read (reset does exactly that).
func growSpan[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset (re)initializes every per-run field for an execution over nodes,
// reusing prior allocations — per-node tables, inbox slabs, counters,
// metrics, worker goroutines — when their capacity suffices. A pooled
// engine (see Pool) runs reset + option application + finishSetup per
// lease, and the resulting observable state is exactly a fresh engine's:
// the pooled-vs-fresh determinism tests pin bit-identical output.
func (e *engine) reset(nodes []Node) {
	n := len(nodes)
	e.nodes = nodes
	e.quiet = growSpan(e.quiet, n)
	e.quietAt = growSpan(e.quietAt, n)
	e.alive = growSpan(e.alive, n)
	e.crashedAt = growSpan(e.crashedAt, n)
	e.byzantine = growSpan(e.byzantine, n)
	e.rushing = growSpan(e.rushing, n)
	e.inboxes = growSpan(e.inboxes, n)
	e.nextInb = growSpan(e.nextInb, n)
	e.inbGen = growSpan(e.inbGen, n)
	e.nextGen = growSpan(e.nextGen, n)
	e.outs = growSpan(e.outs, n)
	e.acted = growSpan(e.acted, n)
	e.aliveView = growSpan(e.aliveView, n)
	e.srcSet = growSpan(e.srcSet, n)
	e.srcGen = growSpan(e.srcGen, n)
	e.boundGen = growSpan(e.boundGen, n)
	e.clsGen = growSpan(e.clsGen, n)
	for i := 0; i < n; i++ {
		e.alive[i] = true
		e.crashedAt[i] = -1
		e.byzantine[i] = false
		e.rushing[i] = false
		// Generation stamps must be zeroed AND the views dropped: a stale
		// stamp equal to uint32(round) at round 0 would let inboxOf hand a
		// previous run's slab view to a fresh node.
		e.inboxes[i], e.nextInb[i] = nil, nil
		e.inbGen[i], e.nextGen[i] = 0, 0
		// The aggregate stamps share the zeroed-means-never convention
		// (round stamps start at 1), so cross-run staleness is impossible.
		e.srcGen[i], e.boundGen[i], e.clsGen[i] = 0, 0, 0
		e.outs[i] = nil
		e.acted[i] = false
		e.quiet[i], e.quietAt[i] = nil, nil
		if q, ok := nodes[i].(Quiescent); ok {
			e.quiet[i] = q
		}
		if q, ok := nodes[i].(ScheduleQuiescent); ok {
			e.quietAt[i] = q
		}
	}
	e.adv = NoCrashes{}
	e.peek = nil
	if e.metrics == nil {
		e.metrics = NewMetrics()
	} else {
		e.metrics.reset()
	}
	e.metrics.sizeFor(n)
	e.rushList = e.rushList[:0]
	e.round = 0
	e.observer = nil
	e.digest = nil
	e.roundEnd = e.roundEnd[:0]
	e.reqWorkers = 0
	e.stepped, e.prevStepped = e.stepped[:0], e.prevStepped[:0]
	e.mergeBuf = e.mergeBuf[:0]
	e.prevFull, e.countsFull = true, true
	e.recip, e.prevRecip = e.recip[:0], e.prevRecip[:0]
	if e.filters == nil {
		e.filters = make(map[int]SendFilter)
	} else {
		clear(e.filters)
	}
	e.filterOrder = e.filterOrder[:0]
	e.previews = nil
	e.rushInbox = e.rushInbox[:0]
	e.delivered = e.delivered[:0]
	e.eagerMulticast = false
	e.aggActive = false
	e.actSets = e.actSets[:0]
	for w := range e.sharedRecs {
		e.sharedRecs[w] = e.sharedRecs[w][:0]
	}
	for w := range e.mergeList {
		e.mergeList[w] = e.mergeList[w][:0]
	}
	// lastMsgs seeds the adaptive collapse predictor; a fresh engine
	// starts at 0, so a reused one must too or the first round's
	// active-worker choice (and nothing else — results are identical
	// either way, but keep reuse exactly fresh) could differ.
	e.lastMsgs = 0
}

// finishSetup resolves the worker count and shard layout after options
// have been applied. Workers are spawned lazily on the first StepRound;
// a reused engine keeps already-spawned goroutines parked on their cmd
// channels and only ever spawns the delta.
func (e *engine) finishSetup() {
	n := len(e.nodes)
	p := e.reqWorkers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	e.workers = p
	e.shardLo = growSpan(e.shardLo, p)
	e.shardHi = growSpan(e.shardHi, p)
	base, rem := n/p, n%p
	lo := 0
	for w := 0; w < p; w++ {
		size := base
		if w < rem {
			size++
		}
		e.shardLo[w], e.shardHi[w] = lo, lo+size
		lo += size
	}
	// Per-worker structures only grow, preserving existing buffers; the
	// counter contents are garbage after reuse, which is safe because
	// countsFull forces a full reset on the first coordinator-only round
	// and parallel phaseCount zeroes its shard every round.
	for len(e.counts) < p {
		e.counts = append(e.counts, nil)
	}
	for w := 0; w < p; w++ {
		e.counts[w] = growSpan(e.counts[w], n)
	}
	for par := range e.slabs {
		for len(e.slabs[par]) < p {
			e.slabs[par] = append(e.slabs[par], inboxSlab{})
		}
		for len(e.mergeSlabs[par]) < p {
			e.mergeSlabs[par] = append(e.mergeSlabs[par], inboxSlab{})
		}
	}
	for len(e.shards) < p {
		e.shards = append(e.shards, metricShard{})
		e.shards[len(e.shards)-1].init()
	}
	for len(e.sharedRecs) < p {
		e.sharedRecs = append(e.sharedRecs, nil)
	}
	for len(e.sharedCur) < p {
		e.sharedCur = append(e.sharedCur, nil)
	}
	for len(e.mergeList) < p {
		e.mergeList = append(e.mergeList, nil)
	}
	for len(e.wexpand) < p {
		e.wexpand = append(e.wexpand, expandPool{})
	}
	// Attach the interned-set registry on every node that shares
	// multicasts through it; under WithEagerMulticast it declines every
	// intern. The registry is per-run: a pooled lease re-clears it here.
	if e.sets == nil {
		e.sets = &Sets{}
	}
	e.sets.reset(n, e.eagerMulticast)
	for _, nd := range e.nodes {
		if su, ok := nd.(SetUser); ok {
			su.UseSets(e.sets)
		}
	}
	for i, r := range e.rushing {
		if r {
			e.rushList = append(e.rushList, i)
		}
	}
	if len(e.rushList) > 0 {
		e.previews = make(map[int][]Message, len(e.rushList))
	}
	e.adaptive = e.reqWorkers <= 0 && e.workers > 1
	e.active = e.workers
}

// adaptiveSpill is the work estimate (node passes + routed messages,
// weighted toward messages) above which a round is worth fanning across
// the pool; below it the four barrier handshakes cost more than the
// round itself. Calibrated on the Byzantine committee loop at n = 1024
// (~175 msgs/round: sequential wins 2×) against the all-to-all baselines
// (n² msgs/round: the pool wins).
const adaptiveSpill = 8192

func (e *engine) ensureWorkers() {
	if e.workers-1 <= e.spawned {
		return
	}
	for len(e.cmd) < e.workers {
		e.cmd = append(e.cmd, nil)
	}
	for len(e.panics) < e.workers {
		e.panics = append(e.panics, nil)
	}
	if cap(e.ack) < e.workers {
		e.ack = make(chan struct{}, e.workers)
	}
	for w := e.spawned + 1; w < e.workers; w++ {
		e.cmd[w] = make(chan int)
		go e.workerLoop(w)
	}
	e.spawned = e.workers - 1
}

func (e *engine) workerLoop(w int) {
	for ph := range e.cmd[w] {
		e.runShard(w, ph)
	}
}

func (e *engine) runShard(w, ph int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[w] = r
		}
		e.ack <- struct{}{}
	}()
	e.phase(w, ph)
}

// runPhase fans one phase across the pool; the coordinator works shard 0
// itself. Worker panics (e.g. a node sending to an invalid link) are
// re-raised here so they surface on the StepRound caller as before.
func (e *engine) runPhase(ph int) {
	if e.active == 1 {
		// Coordinator-only round: worker 0 spans every node in one shard.
		e.phaseSpan(0, ph, 0, len(e.nodes))
		return
	}
	for w := 1; w < e.workers; w++ {
		e.cmd[w] <- ph
	}
	e.phase(0, ph)
	for w := 1; w < e.workers; w++ {
		<-e.ack
	}
	for w := 1; w < e.workers; w++ {
		if p := e.panics[w]; p != nil {
			e.panics[w] = nil
			panic(p)
		}
	}
}

func (e *engine) phase(w, ph int) {
	e.phaseSpan(w, ph, e.shardLo[w], e.shardHi[w])
}

func (e *engine) phaseSpan(w, ph, lo, hi int) {
	switch ph {
	case phStep:
		e.phaseStep(lo, hi)
	case phCount:
		e.phaseCount(w, lo, hi)
	case phDeliver:
		e.phaseDeliver(w, lo, hi)
	case phScatter:
		e.phaseScatter(w, lo, hi)
	case phMerge:
		e.phaseMerge(w)
	}
}

// close releases the worker pool. Idempotent; installed as a finalizer on
// the Network handle so undisposed networks don't leak goroutines.
func (e *engine) close() {
	if e.closed {
		return
	}
	e.closed = true
	for w := 1; w < len(e.cmd); w++ {
		if e.cmd[w] != nil {
			close(e.cmd[w])
		}
	}
}

// shouldStep reports whether node i executes this round: alive, or
// crashed mid-send this round (its output will be filtered).
func (e *engine) shouldStep(i int) bool {
	if e.alive[i] {
		return true
	}
	if e.crashedAt[i] != e.round {
		return false
	}
	_, midSend := e.filters[i]
	return midSend
}

// StepRound executes exactly one synchronous round:
//
//  1. the adversary may crash nodes (optionally mid-send),
//  2. every stepping node receives its inbox (messages sent last round,
//     sorted by sender) and produces an outbox, shards in parallel,
//  3. outboxes are filtered for mid-send crashes, counted, and routed
//     into the (reused) inboxes delivered at the start of the next round.
func (e *engine) StepRound() {
	n := len(e.nodes)

	// The adversary moves first, on the coordinator: its randomness (and
	// any stateful mid-send filters it installs) must be consumed in a
	// deterministic order regardless of the worker count.
	copy(e.aliveView, e.alive)
	view := View{Round: e.round, Alive: e.aliveView, Inbox: e.inboxOf, Peek: e.peek}
	clear(e.filters)
	for _, order := range e.adv.Crashes(view) {
		if order.Node < 0 || order.Node >= n || !e.alive[order.Node] {
			continue
		}
		e.alive[order.Node] = false
		e.crashedAt[order.Node] = e.round
		if order.Filter != nil {
			e.filters[order.Node] = order.Filter
		}
	}

	if e.adaptive {
		if int64(n)+3*e.lastMsgs >= adaptiveSpill {
			e.active = e.workers
		} else {
			e.active = 1
		}
	}
	if e.active > 1 {
		e.ensureWorkers()
	}
	e.runPhase(phStep)
	if len(e.rushList) > 0 {
		e.stepRushers()
	}
	if len(e.filters) > 0 {
		e.evalFilters()
	}
	e.runPhase(phCount)
	e.planShared()
	e.runPhase(phDeliver)
	e.runPhase(phScatter)
	if e.aggActive {
		for w := 0; w < e.active; w++ {
			if len(e.mergeList[w]) > 0 {
				e.runPhase(phMerge)
				break
			}
		}
	}
	e.foldMetrics()
	if e.digest != nil {
		e.emitDigest()
	}

	if e.observer != nil {
		e.delivered = e.delivered[:0]
		gen := uint32(e.round) + 1
		for i := range e.nextInb {
			if e.nextGen[i] != gen {
				continue
			}
			if e.boundGen[i] == gen {
				// Zero-copy bound view: its entries carry the sender's
				// shared To sentinel, so rewrite To while copying into the
				// observer stream — byte-identical to explicit delivery.
				for _, m := range e.nextInb[i] {
					m.To = i
					e.delivered = append(e.delivered, m)
				}
				continue
			}
			e.delivered = append(e.delivered, e.nextInb[i]...)
		}
		e.observer(e.round, e.delivered)
	}
	for _, fn := range e.roundEnd {
		fn()
	}
	if e.active == 1 {
		// This round's acted senders (and traffic recipients) are the
		// entries the next coordinator-only round must reset.
		e.stepped, e.prevStepped = e.prevStepped[:0], e.stepped
		e.recip, e.prevRecip = e.prevRecip[:0], e.recip
	} else {
		// A parallel round steps nodes (and dirties counters) without
		// recording them; force the next coordinator-only round to do one
		// full reset scan.
		e.prevFull = true
		e.countsFull = true
	}
	e.inboxes, e.nextInb = e.nextInb, e.inboxes
	e.inbGen, e.nextGen = e.nextGen, e.inbGen
	e.round++
	e.metrics.Rounds = e.round
}

// inboxOf returns node i's inbox for the current round, or nil when the
// node received nothing this round: the slab view recorded in inboxes[i]
// is only meaningful while its generation stamp matches the round that
// filled it.
func (e *engine) inboxOf(i int) []Message {
	if e.inbGen[i] != uint32(e.round) {
		return nil
	}
	return e.inboxes[i]
}

// emitDigest rolls the just-folded (still fresh) shard accumulators into
// a RoundDigest for the WithRoundDigest callback. digestKinds is reused
// every round, so the callback must not retain the map.
func (e *engine) emitDigest() {
	if e.digestKinds == nil {
		e.digestKinds = make(map[string]int64)
	}
	clear(e.digestKinds)
	d := RoundDigest{Round: e.round, PerKind: e.digestKinds}
	for w := 0; w < e.active; w++ {
		sh := &e.shards[w]
		d.Messages += sh.messages
		d.Bits += sh.bits
		for k, v := range sh.perKind {
			e.digestKinds[k] += v
		}
	}
	e.digest(d)
}

// phaseStep — wave 1: every non-rushing stepping node in the shard steps
// against its inbox. Nodes only touch their own state, so shards are
// independent; the engine does not retain the returned outbox past the
// round, so nodes may reuse their outbox buffers.
func (e *engine) phaseStep(lo, hi int) {
	if e.active == 1 {
		// Coordinator-only round: clear only last round's acted entries,
		// then record this round's acted senders so the count and scatter
		// phases can walk just those instead of scanning all n slots.
		if e.prevFull {
			for i := lo; i < hi; i++ {
				e.outs[i] = nil
				e.acted[i] = false
			}
			e.prevFull = false
		} else {
			for _, i := range e.prevStepped {
				e.outs[i] = nil
				e.acted[i] = false
			}
		}
		e.stepped = e.stepped[:0]
		for i := lo; i < hi; i++ {
			if e.rushing[i] || !e.shouldStep(i) {
				continue
			}
			inb := e.inboxOf(i)
			if len(inb) == 0 && e.idleVouched(i) {
				continue
			}
			e.acted[i] = true
			e.outs[i] = e.nodes[i].Step(e.round, inb)
			e.stepped = append(e.stepped, i)
		}
		return
	}
	for i := lo; i < hi; i++ {
		e.outs[i] = nil
		e.acted[i] = false
		if e.rushing[i] || !e.shouldStep(i) {
			continue
		}
		inb := e.inboxOf(i)
		if len(inb) == 0 && e.idleVouched(i) {
			// The node vouches that this call would be a pure no-op (see
			// Quiescent); eliding it is observationally identical. acted
			// stays false, which downstream phases treat as "empty outbox".
			continue
		}
		e.acted[i] = true
		e.outs[i] = e.nodes[i].Step(e.round, inb)
	}
}

// idleVouched reports that node i vouches — through either quiescence
// contract — that a Step call with an empty inbox this round would be a
// pure no-op. The decision is a function of the node's own state and
// the round number only, so it is identical at every worker count.
func (e *engine) idleVouched(i int) bool {
	if q := e.quiet[i]; q != nil && q.Quiescent() {
		return true
	}
	if q := e.quietAt[i]; q != nil && q.QuiescentAt(e.round) {
		return true
	}
	return false
}

// stepRushers — wave 2, on the coordinator: rushing nodes step with a
// preview of the messages honest nodes addressed to them in the *current*
// round appended to their inbox. Rushing nodes do not preview each other.
// Previews respect mid-send crash filters, and filter calls happen here —
// before the count phase — in ascending sender order, exactly as the
// sequential engine made them.
func (e *engine) stepRushers() {
	n := len(e.nodes)
	for k, v := range e.previews {
		e.previews[k] = v[:0]
	}
	for i := 0; i < n; i++ {
		if !e.acted[i] {
			continue
		}
		filter := e.filters[i]
		for _, msg := range e.outs[i] {
			if msg.To == ToAll {
				// A shared broadcast reaches every rushing node; expanding
				// ascending over rushList matches the explicit broadcast's
				// to = 0..n-1 visit order (and its filter-call order).
				for _, r := range e.rushList {
					if filter != nil && !filter(r) {
						continue
					}
					e.previews[r] = append(e.previews[r], Message{From: i, To: r, Payload: msg.Payload})
				}
				continue
			}
			if msg.To <= toSetBase {
				// Shared multicast: members are ascending, matching the
				// explicit Multicast's emission (and filter-call) order.
				for _, m := range e.sets.membersOf(toSetID(msg.To)) {
					r := int(m)
					if !e.rushing[r] {
						continue
					}
					if filter != nil && !filter(r) {
						continue
					}
					e.previews[r] = append(e.previews[r], Message{From: i, To: r, Payload: msg.Payload})
				}
				continue
			}
			if msg.To < 0 || msg.To >= n || !e.rushing[msg.To] {
				continue
			}
			if filter != nil && !filter(msg.To) {
				continue
			}
			msg.From = i
			e.previews[msg.To] = append(e.previews[msg.To], msg)
		}
	}
	for _, r := range e.rushList {
		if !e.shouldStep(r) {
			continue
		}
		inbox := e.inboxOf(r)
		if preview := e.previews[r]; len(preview) > 0 {
			// Previews were appended in ascending sender order, so the
			// combined inbox stays sorted by sender.
			e.rushInbox = append(append(e.rushInbox[:0], inbox...), preview...)
			inbox = e.rushInbox
		}
		e.acted[r] = true
		e.outs[r] = e.nodes[r].Step(e.round, inbox)
	}
	if e.active == 1 {
		// Merge the acted rushers into the stepped list, preserving the
		// ascending sender order the scatter phase relies on. Rushing
		// nodes are skipped by phaseStep, so there are no duplicates.
		e.mergeBuf = e.mergeBuf[:0]
		s := e.stepped
		j := 0
		for _, r := range e.rushList {
			if !e.acted[r] {
				continue
			}
			for j < len(s) && s[j] < r {
				e.mergeBuf = append(e.mergeBuf, s[j])
				j++
			}
			e.mergeBuf = append(e.mergeBuf, r)
		}
		e.mergeBuf = append(e.mergeBuf, s[j:]...)
		e.stepped, e.mergeBuf = e.mergeBuf, e.stepped
	}
}

// evalFilters compacts every mid-send crasher's outbox to the wire
// messages its filter lets through. Filters may share a memoizing rng
// (adversary.randomHalfFilter), so they are called once, sequentially,
// in ascending (sender, wire message) order — shared entries walked
// member-ascending, exactly the order the explicit representation emits
// them in — and the parallel phases only ever see the survivors. A
// sender whose filter kept every wire message keeps its outbox as it
// was, shared entries included, so it stays on the aggregate path; only
// senders whose filter actually diverged pay for per-recipient copies.
func (e *engine) evalFilters() {
	e.filterOrder = e.filterOrder[:0]
	wire := 0
	for s := range e.filters {
		if e.acted[s] {
			e.filterOrder = append(e.filterOrder, s)
			wire += e.wireLen(s)
		}
	}
	sort.Ints(e.filterOrder)
	if cap(e.survivors) < wire {
		e.survivors = make([]Message, 0, wire)
	}
	buf := e.survivors[:0]
	for _, s := range e.filterOrder {
		start := len(buf)
		buf = e.appendSurvivors(buf, s)
		if len(buf)-start == e.wireLen(s) {
			buf = buf[:start]
			continue
		}
		e.outs[s] = buf[start:len(buf):len(buf)]
	}
	e.survivors = buf
}

// wireLen returns the number of wire messages in sender s's outbox:
// one per explicit entry, |set| per shared entry.
func (e *engine) wireLen(s int) int {
	total := 0
	for _, msg := range e.outs[s] {
		switch {
		case msg.To == ToAll:
			total += len(e.nodes)
		case msg.To <= toSetBase:
			total += len(e.setMembers(msg.To))
		default:
			total++
		}
	}
	return total
}

// appendSurvivors appends to buf the wire messages of sender s's outbox
// that its mid-send filter keeps, calling the filter once per wire
// message in emission order. buf must have room for every wire message
// of s (evalFilters sizes it so): each one is written unconditionally
// and the verdict only decides whether the cursor moves past it, which
// keeps the coin-flip verdicts off the branch predictor.
func (e *engine) appendSurvivors(buf []Message, s int) []Message {
	n := len(e.nodes)
	filter := e.filters[s]
	k := len(buf)
	buf = buf[:cap(buf)]
	for _, msg := range e.outs[s] {
		switch {
		case msg.To == ToAll:
			for to := 0; to < n; to++ {
				buf[k] = Message{From: msg.From, To: to, Payload: msg.Payload}
				if filter(to) {
					k++
				}
			}
		case msg.To <= toSetBase:
			for _, m := range e.setMembers(msg.To) {
				buf[k] = Message{From: msg.From, To: int(m), Payload: msg.Payload}
				if filter(int(m)) {
					k++
				}
			}
		default:
			if msg.To < 0 || msg.To >= n {
				panic(fmt.Sprintf("sim: node %d sent to invalid link %d", s, msg.To))
			}
			buf[k] = msg
			if filter(msg.To) {
				k++
			}
		}
	}
	return buf[:k]
}

// setMembers returns the members of the set a ToSet sentinel names,
// ascending, panicking on a sentinel no interned set backs.
func (e *engine) setMembers(to int) []int32 {
	sid := toSetID(to)
	if !e.sets.valid(sid) {
		panic(fmt.Sprintf("sim: message addressed to unknown set %d", sid))
	}
	return e.sets.membersOf(sid)
}

// appendExpanded appends out to buf with every shared entry expanded into
// explicit per-recipient messages, in the exact order the eager
// representation would have emitted them: ToAll ascending over all links,
// ToSet ascending over the set's members.
func (e *engine) appendExpanded(buf []Message, out Outbox) []Message {
	n := len(e.nodes)
	for _, msg := range out {
		switch {
		case msg.To == ToAll:
			for to := 0; to < n; to++ {
				buf = append(buf, Message{From: msg.From, To: to, Payload: msg.Payload})
			}
		case msg.To <= toSetBase:
			for _, m := range e.setMembers(msg.To) {
				buf = append(buf, Message{From: msg.From, To: int(m), Payload: msg.Payload})
			}
		default:
			buf = append(buf, msg)
		}
	}
	return buf
}

// phaseCount walks the shard's outboxes, counting surviving messages per
// recipient and accumulating communication metrics into the shard's
// accumulator. PerNodeSent cells belong to this shard's senders, so the
// writes are race-free without locks.
func (e *engine) phaseCount(w, lo, hi int) {
	counts := e.counts[w]
	sh := &e.shards[w]
	e.sharedRecs[w] = e.sharedRecs[w][:0]
	e.wexpand[w].used = 0
	if e.active == 1 {
		// Coordinator-only round: reset only the counter cells the
		// previous round dirtied (its traffic recipients — scatter left
		// its write cursors there), then walk just the senders that
		// acted, recording this round's recipients as it counts.
		if e.countsFull {
			for i := range counts {
				counts[i] = 0
			}
			e.countsFull = false
		} else {
			for _, to := range e.prevRecip {
				counts[to] = 0
			}
		}
		e.recip = e.recip[:0]
		sh.reset()
		for _, i := range e.stepped {
			e.countSender(w, sh, counts, i, true)
		}
		return
	}
	for i := range counts {
		counts[i] = 0
	}
	sh.reset()
	for i := lo; i < hi; i++ {
		if !e.acted[i] {
			continue
		}
		e.countSender(w, sh, counts, i, false)
	}
}

// countSender counts one acted sender's surviving messages into counts
// and the shard accumulator — the phaseCount per-sender body, shared by
// the sharded scan and the coordinator-only stepped walk. With track set
// (coordinator-only rounds), every recipient is appended to e.recip the
// first time its counter leaves zero, so the deliver phase can walk just
// the recipients with traffic.
//
// A sender whose outbox is exactly one shared entry (ToAll or ToSet) —
// mid-send filtering has already compacted any diverged outbox to
// explicit survivors — takes the aggregate path: one addN bills the full fan-out, the
// per-recipient counters stay untouched, and the sender joins the
// worker's sharedRecs for planShared/scatterShared. An outbox that mixes
// shared entries with anything else is expanded into explicit messages
// first (worker-local buffers), preserving its emission order exactly —
// shared targets never reach the explicit loop below.
func (e *engine) countSender(w int, sh *metricShard, counts []int32, i int, track bool) {
	out := e.outs[i]
	if len(out) == 0 {
		return
	}
	n := len(e.nodes)
	limit := e.metrics.CongestLimit
	honest := !e.byzantine[i]
	if len(out) == 1 && out[0].To < 0 {
		msg := &out[0]
		fan, tgt := n, int32(ToAll)
		if msg.To <= toSetBase {
			sid := toSetID(msg.To)
			if !e.sets.valid(sid) {
				panic(fmt.Sprintf("sim: node %d sent to unknown set %d", i, sid))
			}
			fan, tgt = len(e.sets.membersOf(sid)), int32(sid)
		}
		// One entry, fan wire messages: Kind/Bits are evaluated once
		// (payloads are immutable in flight), and addN accounts exactly
		// as fan consecutive adds would.
		sh.addN(msg.Payload.Kind(), msg.Payload.Bits(), int64(fan), honest, limit)
		e.metrics.PerNodeSent[i] += int64(fan)
		e.sharedRecs[w] = append(e.sharedRecs[w], sharedRec{from: int32(i), target: tgt})
		return
	}
	for k := range out {
		if out[k].To < 0 {
			// Mixed outbox (shared entries alongside others, or several
			// shared entries): expand to explicit messages so delivery
			// order within the sender is preserved verbatim.
			out = e.expandMixed(w, i, out)
			break
		}
	}
	var sent int64
	for k := range out {
		msg := &out[k]
		if msg.To < 0 || msg.To >= n {
			panic(fmt.Sprintf("sim: node %d sent to invalid link %d", i, msg.To))
		}
		if track && counts[msg.To] == 0 {
			e.recip = append(e.recip, msg.To)
		}
		counts[msg.To]++
		sent++
		sh.add(msg.Payload.Kind(), msg.Payload.Bits(), honest, limit)
	}
	e.metrics.PerNodeSent[i] += sent
}

// expandMixed replaces sender i's mixed outbox with its explicit
// expansion from worker w's buffer pool; the same worker reads the
// rewritten outbox again in its scatter phase.
func (e *engine) expandMixed(w, i int, out Outbox) Outbox {
	p := &e.wexpand[w]
	var buf []Message
	if p.used < len(p.bufs) {
		buf = p.bufs[p.used][:0]
	} else {
		p.bufs = append(p.bufs, nil)
	}
	buf = e.appendExpanded(buf, out)
	p.bufs[p.used] = buf
	p.used++
	e.outs[i] = buf
	return buf
}

// planShared runs on the coordinator between the count and deliver
// phases: it discovers this round's distinct shared targets, carves one
// aggregate segment per target out of the parity aggregate slab, and
// seeds per-worker scatter cursors so that each segment is filled in
// global sender order (workers ascending, senders ascending within each
// worker — the same order the counting sort assigns explicit slots in).
// Cost: O(shared senders + targets × workers); rounds without shared
// traffic pay one boolean scan over the active workers.
func (e *engine) planShared() {
	e.actSets = e.actSets[:0]
	e.aggActive = false
	any := false
	for w := 0; w < e.active; w++ {
		if len(e.sharedRecs[w]) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	e.aggActive = true
	for w := 0; w < e.active; w++ {
		for _, r := range e.sharedRecs[w] {
			if e.actIdx(r.target) < 0 {
				e.actSets = append(e.actSets, actSet{id: int(r.target)})
			}
		}
	}
	na := len(e.actSets)
	for w := 0; w < e.active; w++ {
		cur := growSpan(e.sharedCur[w], na)
		for i := 0; i < na; i++ {
			cur[i] = 0
		}
		for _, r := range e.sharedRecs[w] {
			cur[e.actIdx(r.target)]++
		}
		e.sharedCur[w] = cur
	}
	// Exclusive prefix over (target, worker): cursors become absolute
	// write offsets into the aggregate slab.
	off := 0
	for i := range e.actSets {
		a := &e.actSets[i]
		t := int32(0)
		for w := 0; w < e.active; w++ {
			c := e.sharedCur[w][i]
			e.sharedCur[w][i] = int32(off) + t
			t += c
		}
		a.start, a.total = off, int(t)
		off += int(t)
	}
	e.aggBuf = e.aggSlabs[e.round&1].fill(off)
	for i := range e.actSets {
		a := &e.actSets[i]
		a.seg = e.aggBuf[a.start : a.start+a.total : a.start+a.total]
	}
}

// actIdx returns the actSets index of target, or -1. Linear: a round has
// a handful of distinct shared targets at most.
func (e *engine) actIdx(target int32) int {
	for i := range e.actSets {
		if e.actSets[i].id == int(target) {
			return i
		}
	}
	return -1
}

// scatterShared writes worker w's pure-shared senders into the aggregate
// segments at the planned cursors, stamping the true sender. Workers
// write disjoint cursor ranges, and walking sharedRecs in order keeps
// every segment in global sender order.
func (e *engine) scatterShared(w int) {
	recs := e.sharedRecs[w]
	if len(recs) == 0 {
		return
	}
	cur := e.sharedCur[w]
	for _, r := range recs {
		idx := e.actIdx(r.target)
		pos := cur[idx]
		cur[idx] = pos + 1
		msg := e.outs[r.from][0]
		msg.From = int(r.from)
		e.aggBuf[pos] = msg
	}
}

// deliverShared classifies the recipients of this round's aggregate
// segments, after the individual views have been carved. A recipient
// whose only traffic is a single segment is bound to it zero-copy
// (boundGen marks the view as still carrying the sender's To sentinel);
// a recipient with several sources — an individual view, or more than
// one segment — is queued on the worker's merge list for phaseMerge.
// The coordinator-only path calls this with the full [0, n) span.
func (e *engine) deliverShared(w, lo, hi int, stamp uint32) {
	ml := e.mergeList[w][:0]
	toAllIdx := -1
	for idx := range e.actSets {
		a := &e.actSets[idx]
		if a.id == ToAll {
			toAllIdx = idx
			continue
		}
		// Mark this worker's members of the named set; a second named
		// source for the same recipient degrades it to "multiple".
		members := e.sets.membersOf(a.id)
		for j := lowerBound(members, lo); j < len(members) && int(members[j]) < hi; j++ {
			to := int(members[j])
			if e.srcGen[to] == stamp {
				e.srcSet[to] = -2
			} else {
				e.srcGen[to] = stamp
				e.srcSet[to] = int32(idx)
			}
		}
	}
	if toAllIdx >= 0 {
		// Every recipient has the ToAll segment as a source.
		for to := lo; to < hi; to++ {
			ml = e.classifyShared(to, stamp, toAllIdx, ml)
		}
	} else {
		// Only members of an active named set can have a shared source;
		// walk those, classifying each recipient once.
		for idx := range e.actSets {
			members := e.sets.membersOf(e.actSets[idx].id)
			for j := lowerBound(members, lo); j < len(members) && int(members[j]) < hi; j++ {
				to := int(members[j])
				if e.clsGen[to] == stamp {
					continue
				}
				e.clsGen[to] = stamp
				ml = e.classifyShared(to, stamp, -1, ml)
			}
		}
	}
	e.mergeList[w] = ml
}

// classifyShared resolves recipient to's delivery for an aggregate-active
// round: bind (zero-copy shared view), keep the individual view as-is, or
// queue for merge. Aggregate receive counts are credited here; individual
// counts were credited when the view was carved.
func (e *engine) classifyShared(to int, stamp uint32, toAllIdx int, ml []int32) []int32 {
	namedIdx, multi := -1, false
	if e.srcGen[to] == stamp {
		if e.srcSet[to] == -2 {
			multi = true
		} else {
			namedIdx = int(e.srcSet[to])
		}
	}
	var recv int64
	sources := 0
	if toAllIdx >= 0 {
		sources++
		recv += int64(e.actSets[toAllIdx].total)
	}
	if multi {
		sources += 2
		for idx := range e.actSets {
			a := &e.actSets[idx]
			if a.id != ToAll && containsMember(e.sets.membersOf(a.id), to) {
				recv += int64(a.total)
			}
		}
	} else if namedIdx >= 0 {
		sources++
		recv += int64(e.actSets[namedIdx].total)
	}
	if sources == 0 {
		return ml
	}
	e.metrics.PerNodeReceived[to] += recv
	if sources == 1 && e.nextGen[to] != stamp {
		idx := toAllIdx
		if idx < 0 {
			idx = namedIdx
		}
		e.nextInb[to] = e.actSets[idx].seg
		e.nextGen[to] = stamp
		e.boundGen[to] = stamp
		return ml
	}
	return append(ml, int32(to))
}

// phaseMerge materializes the inboxes of recipients with several
// delivery sources: the individual view and every covering aggregate
// segment are k-way merged by sender into the worker's merge slab, with
// To rewritten to the recipient during the copy. Sources are
// sender-disjoint (a sender's round outbox is either one shared entry or
// all-explicit), so the merge by leading From reproduces the explicit
// representation's (sender, emission) delivery order exactly.
func (e *engine) phaseMerge(w int) {
	ml := e.mergeList[w]
	if len(ml) == 0 {
		return
	}
	stamp := uint32(e.round) + 1
	var total int
	for _, to32 := range ml {
		to := int(to32)
		if e.nextGen[to] == stamp {
			total += len(e.nextInb[to])
		}
		total += e.aggLenFor(to)
	}
	slab := &e.mergeSlabs[e.round&1][w]
	buf := slab.fill(total)
	off := 0
	var srcs [][]Message
	for _, to32 := range ml {
		to := int(to32)
		srcs = srcs[:0]
		if e.nextGen[to] == stamp {
			srcs = append(srcs, e.nextInb[to])
		}
		for idx := range e.actSets {
			a := &e.actSets[idx]
			if a.total == 0 {
				continue
			}
			if a.id == ToAll || containsMember(e.sets.membersOf(a.id), to) {
				srcs = append(srcs, a.seg)
			}
		}
		cnt := 0
		for _, s := range srcs {
			cnt += len(s)
		}
		view := buf[off : off : off+cnt]
		for len(view) < cnt {
			best := -1
			for si := range srcs {
				if len(srcs[si]) == 0 {
					continue
				}
				if best < 0 || srcs[si][0].From < srcs[best][0].From {
					best = si
				}
			}
			msg := srcs[best][0]
			msg.To = to
			view = append(view, msg)
			srcs[best] = srcs[best][1:]
		}
		e.nextInb[to] = view
		e.nextGen[to] = stamp
		off += cnt
	}
}

// aggLenFor sums the lengths of the aggregate segments covering
// recipient to this round.
func (e *engine) aggLenFor(to int) int {
	var total int
	for idx := range e.actSets {
		a := &e.actSets[idx]
		if a.total == 0 {
			continue
		}
		if a.id == ToAll || containsMember(e.sets.membersOf(a.id), to) {
			total += a.total
		}
	}
	return total
}

// phaseDeliver turns the per-worker counters for this shard's *recipients*
// into exclusive prefix offsets — the counting sort's allocation step —
// and carves this round's inbox views out of the shard's parity slab.
// Worker w's senders all precede worker w+1's, so within each view the
// offset order is global sender order; the order of views *within* the
// slab (recipient discovery order on sparse rounds) is immaterial.
// Recipients without traffic are never touched: their table entry keeps
// a stale view that inboxOf's generation check filters out.
func (e *engine) phaseDeliver(w, lo, hi int) {
	slab := &e.slabs[e.round&1][w]
	stamp := uint32(e.round) + 1
	if e.active == 1 {
		// Coordinator-only round: every recipient with traffic is on the
		// recip list, and with one worker every in-view offset starts at
		// zero — resetting the counter to zero doubles as the prefix pass.
		counts := e.counts[0]
		var total int
		for _, to := range e.recip {
			total += int(counts[to])
		}
		buf := slab.fill(total)
		off := 0
		for _, to := range e.recip {
			cnt := int(counts[to])
			counts[to] = 0
			e.metrics.PerNodeReceived[to] += int64(cnt)
			e.nextInb[to] = buf[off : off+cnt : off+cnt]
			e.nextGen[to] = stamp
			off += cnt
		}
		if e.aggActive {
			e.deliverShared(0, 0, len(e.nodes), stamp)
		}
		return
	}
	// Pass 1: size the shard's slab without disturbing the counters.
	var total int
	for to := lo; to < hi; to++ {
		for x := 0; x < e.active; x++ {
			total += int(e.counts[x][to])
		}
	}
	buf := slab.fill(total)
	// Pass 2: exclusive prefix offsets per recipient (view-relative) and
	// view assignment at the running slab offset.
	off := 0
	for to := lo; to < hi; to++ {
		var sum int32
		for x := 0; x < e.active; x++ {
			c := e.counts[x][to]
			e.counts[x][to] = sum
			sum += c
		}
		if sum == 0 {
			continue
		}
		e.metrics.PerNodeReceived[to] += int64(sum)
		e.nextInb[to] = buf[off : off+int(sum) : off+int(sum)]
		e.nextGen[to] = stamp
		off += int(sum)
	}
	if e.aggActive {
		e.deliverShared(w, lo, hi, stamp)
	}
}

// phaseScatter places the shard's surviving messages at their precomputed
// inbox offsets, stamping the true sender (authenticated channels).
// Distinct workers write disjoint ranges of each inbox.
func (e *engine) phaseScatter(w, lo, hi int) {
	counts := e.counts[w]
	if e.aggActive {
		e.scatterShared(w)
	}
	if e.active == 1 {
		// Coordinator-only round: walk just the senders that acted. The
		// stepped list is ascending, so offsets are still assigned in
		// global sender order.
		for _, i := range e.stepped {
			e.scatterSender(counts, i)
		}
		return
	}
	for i := lo; i < hi; i++ {
		if !e.acted[i] {
			continue
		}
		e.scatterSender(counts, i)
	}
}

// scatterSender places one acted sender's surviving messages at their
// precomputed inbox offsets — the phaseScatter per-sender body, shared by
// the sharded scan and the coordinator-only stepped walk. Shared senders
// are skipped: scatterShared already placed their single entry in an
// aggregate segment, and mixed outboxes were expanded during the count
// phase, so no shared target ever reaches the per-message loop.
func (e *engine) scatterSender(counts []int32, i int) {
	out := e.outs[i]
	if len(out) == 1 && out[0].To < 0 {
		return
	}
	for k := range out {
		msg := out[k]
		msg.From = i
		pos := counts[msg.To]
		counts[msg.To] = pos + 1
		e.nextInb[msg.To][pos] = msg
	}
}

// foldMetrics merges the per-shard accumulators into the public Metrics
// at the round barrier. Every merge is commutative integer arithmetic, so
// the fold is identical at every worker count.
func (e *engine) foldMetrics() {
	m := e.metrics
	var roundMsgs int64
	// Only the shards that ran this round hold fresh accumulators; the
	// rest were folded (and will be reset) the next time they run.
	for w := 0; w < e.active; w++ {
		sh := &e.shards[w]
		sh.flushRun()
		roundMsgs += sh.messages
		m.Messages += sh.messages
		m.Bits += sh.bits
		m.HonestMessages += sh.honestMessages
		m.HonestBits += sh.honestBits
		m.OversizeMessages += sh.oversize
		if sh.maxMessageBits > m.MaxMessageBits {
			m.MaxMessageBits = sh.maxMessageBits
		}
		for k, v := range sh.perKind {
			m.PerKind[k] += v
		}
		for k, v := range sh.perKindBits {
			m.PerKindBits[k] += v
		}
	}
	e.lastMsgs = roundMsgs
}
