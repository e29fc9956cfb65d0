package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
)

// engine is the round engine behind Network: it steps nodes in place —
// across a persistent worker pool when the round is heavy — and routes
// their messages through reusable per-node inboxes. It is built for the
// scaling sweeps (n = 16384 and beyond): the per-round cost is
// O(stepped nodes + messages) with near-zero allocations, no per-node
// goroutines, and no sorting.
//
// A round runs in two halves. The step phase is the only one the pool
// shares out:
//
//	step     the round's candidates (every node, or in a parked round the
//	         awake list plus last round's recipients) are split into one
//	         contiguous range per active worker; each worker steps its
//	         alive non-rushing nodes in place and lists the ones that
//	         stepped, ascending. The coordinator concatenates the lists
//	         in worker order, so the round's stepped list is ascending.
//
// Everything after it runs once, on the coordinator, over that list:
//
//	rush     rushing nodes step with previews (wave 2), and mid-send
//	         crash filters are evaluated sequentially, so stateful
//	         filters consume shared randomness in ascending sender order;
//	count    each stepped sender's outbox bumps one per-recipient counter
//	         and the round's metric accumulator; recipients are listed
//	         the first time their counter leaves zero. An outbox that is
//	         one shared entry — ToSet(id), with ToAll the reserved set 0
//	         of every link — is billed once for the whole set instead;
//	share    each shared set gets an aggregate segment. A member whose
//	         only traffic is that segment is bound to it zero-copy; every
//	         other member is counted like an explicit recipient and listed
//	         on the set's merged list;
//	deliver  each listed recipient's count becomes a view carved out of
//	         the parity slab;
//	scatter  each stepped sender's messages are written, in ascending
//	         sender order, at the next free slot of their recipients'
//	         views; a shared entry goes into its set's segment and into
//	         the view of every member on the set's merged list.
//
// Because slots are assigned in (sender, emission) order, every inbox
// comes out sorted by sender link with per-sender emission order
// preserved, at every worker count. A recipient's sources (explicit mail
// and the covering sets' segments) are sender-disjoint, since a sender's
// routed outbox is either one shared entry or all-explicit, so one
// ascending sender walk also orders recipients with several sources.
//
// Inbox storage is slab-allocated (see inboxSlab): per round, one arena
// holds every incoming message, and the per-recipient tables hold views
// into it. Two slabs alternate by round parity — round r's views are
// read during round r+1 while round r+1 fills the other slab — and reuse
// is generation-stamped: a recipient's view is only meaningful when its
// stamp matches the current fill, so idle recipients are never touched
// during delivery and their (stale) views are simply never read.
// docs/MEMORY.md documents the resulting memory model.
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
	digest    func(RoundDigest)

	// Worker pool, for the step phase only. workers is the resolved
	// shard count P; worker 0 is the coordinator (the StepRound caller),
	// workers 1..P-1 are long-lived goroutines parked on their cmd
	// channel between rounds. spawned counts the goroutines actually
	// started; a pooled engine reused with more workers spawns only the
	// delta. shards holds each worker's step output.
	reqWorkers int // WithEngineWorkers override; 0 = GOMAXPROCS
	workers    int
	spawned    int
	closed     bool
	cmd        []chan struct{}
	ack        chan struct{}
	panics     []any
	shards     []stepShard

	// Adaptive collapse: rounds with little traffic step on the
	// coordinator alone (active = 1), skipping the barrier handshake
	// whose wakeup latency dwarfs the actual work at small scales — the
	// committee loop of the Byzantine algorithm moves a few hundred
	// messages per round. Heavy rounds (all-to-all baselines,
	// announce/distribute fan-outs, the 16384+ sweeps) still fan their
	// steps across the pool. Results are bit-identical at every worker
	// count, so flipping per round is unobservable; an explicit
	// WithEngineWorkers pin disables the collapse so tests can exercise
	// a chosen path. lastMsgs (messages counted in the previous round) is
	// the traffic predictor.
	adaptive bool
	active   int
	lastMsgs int64

	// stepped lists the senders that acted this round, ascending, and
	// prevStepped the round before, whose outboxes the next step phase
	// drops. Routing walks stepped instead of scanning all n nodes, and
	// its ascending order is what assigns inbox slots in sender order.
	stepped     []int
	prevStepped []int
	mergeBuf    []int

	// Parking, for runs with at least one Quiescent node (parkable). A
	// node polled with an empty inbox whose Quiescent() vouches is
	// parked: its answer depends on its state alone, which only Step
	// changes, so it is not polled again until it has mail. awake lists,
	// ascending, the alive non-rushing nodes the next round must still
	// poll: those that stepped and those elided only through
	// QuiescentAt. parked reports that the last round had no
	// shared-aggregate delivery, so awake ∪ prevRecip holds every node
	// the next round has to visit; visit is the n-bit scratch set that
	// sorts that union into visitList.
	parkable  bool
	parked    bool
	awake     []int
	visit     []uint64
	visitList []int

	// Per-round state, all reused across rounds. The inbox tables hold
	// views into the parity-alternating slabs; a view is only meaningful
	// when its generation stamp matches the round that filled it (see
	// inboxOf), so entries of idle recipients go stale instead of being
	// reset.
	inboxes [][]Message // delivered this round, per recipient (slab views)
	nextInb [][]Message // being filled for next round (slab views)
	inbGen  []uint32    // per recipient: fill stamp of inboxes[i]
	nextGen []uint32    // per recipient: fill stamp of nextInb[i]
	slabs   [2]inboxSlab
	outs    []Outbox  // per sender: this round's outbox (nil if idle)
	counts  []int32   // per recipient: count, then scatter cursor
	acc     metricAcc // this round's metric accumulator
	// expanded is the arena mixed outboxes (shared entries alongside
	// others) are expanded into during the count phase; it is reclaimed
	// at the next count phase, after the round's outbox references are
	// gone.
	expanded []Message

	// recip lists the recipients with incoming traffic this round,
	// discovery-ordered, and prevRecip the round before — the delivery
	// analogue of stepped/prevStepped: the count phase resets only those
	// counter cells instead of scanning all n recipients.
	recip     []int
	prevRecip []int

	aliveView   []bool
	filters     map[int]SendFilter
	filterOrder []int
	previews    map[int][]Message
	rushInbox   []Message

	// survivors is the arena mid-send crash filtering compacts filtered
	// outboxes into: each crasher's surviving wire messages, shared
	// entries written out per member. It is sized once
	// per round to the filtered senders' total wire count and reclaimed
	// at the next evalFilters call, after the step phase has dropped all
	// outbox references.
	survivors []Message
	roundEnd  []func() // coordinator hooks run at the end of every round

	// Shared-aggregate delivery (ToSet multicasts, ToAll being the
	// reserved full-range set 0). A sender whose round outbox is exactly
	// one shared entry (after mid-send compaction: a filter that kept
	// everything leaves it shared) is listed in sharedFrom instead of
	// bumping the per-recipient counters; planShared (between count and
	// deliver) carves one aggregate segment per distinct shared target
	// out of the parity aggregate slab, which scatter fills in sender
	// order. Recipients whose only traffic is a single segment are *bound*
	// to it zero-copy (their view still carries the sender's To
	// sentinel); recipients with several sources get a counted view in
	// the inbox slab like any explicit recipient, and scatter writes each
	// covering set's entries into it. See docs/MEMORY.md.
	sets           *Sets
	eagerMulticast bool
	sharedFrom     []int32      // pure-shared senders, ascending
	actSets        []actSet     // this round's distinct shared targets
	aggSlabs       [2]inboxSlab // aggregate segments, by round parity
	aggActive      bool
	clsGen         []uint32 // per recipient: classification-done stamp
}

// stepShard is one worker's step-phase output: the nodes it stepped and,
// in parkable runs, the nodes it keeps awake, both ascending.
type stepShard struct {
	stepped []int
	awake   []int
}

// actSet is one distinct shared target active this round: its set id,
// its aggregate segment (a sender-ordered view into the aggregate slab),
// its size, the scatter cursor into it, and its merged members — those
// not bound to the segment, whose counted views scatter also writes the
// set's entries into. merged keeps its capacity across rounds.
type actSet struct {
	id     int
	total  int
	cur    int
	seg    []Message
	merged []int32
}

// inboxSlab is a per-parity message arena: each round the deliver phase
// carves every recipient view out of a single contiguous buffer, instead
// of growing (and retaining) one slice per recipient.
type inboxSlab struct {
	buf []Message
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
	e.counts = growSpan(e.counts, n)
	e.aliveView = growSpan(e.aliveView, n)
	e.clsGen = growSpan(e.clsGen, n)
	e.visit = growSpan(e.visit, (n+63)/64)
	clear(e.visit)
	e.parkable, e.parked = false, false
	e.awake = e.awake[:0]
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
		// The classification stamp is zeroed-means-never too (round
		// stamps start at 1), so cross-run staleness is impossible.
		e.clsGen[i] = 0
		e.outs[i] = nil
		// A previous run leaves its last round's counters dirty.
		e.counts[i] = 0
		e.quiet[i], e.quietAt[i] = nil, nil
		if q, ok := nodes[i].(Quiescent); ok {
			e.quiet[i] = q
			e.parkable = true
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
	if e.acc.perKind == nil {
		e.acc.init()
	}
	e.rushList = e.rushList[:0]
	e.round = 0
	e.digest = nil
	e.roundEnd = e.roundEnd[:0]
	e.reqWorkers = 0
	e.stepped, e.prevStepped = e.stepped[:0], e.prevStepped[:0]
	e.recip, e.prevRecip = e.recip[:0], e.prevRecip[:0]
	if e.filters == nil {
		e.filters = make(map[int]SendFilter)
	} else {
		clear(e.filters)
	}
	e.filterOrder = e.filterOrder[:0]
	e.previews = nil
	e.rushInbox = e.rushInbox[:0]
	e.eagerMulticast = false
	e.aggActive = false
	e.actSets = e.actSets[:0]
	// lastMsgs seeds the adaptive collapse predictor; a fresh engine
	// starts at 0, so a reused one must too or the first round's
	// active-worker choice (and nothing else — results are identical
	// either way, but keep reuse exactly fresh) could differ.
	e.lastMsgs = 0
}

// finishSetup resolves the worker count after options have been
// applied. Workers are spawned lazily on the first parallel round; a
// reused engine keeps already-spawned goroutines parked on their cmd
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
	for len(e.shards) < p {
		e.shards = append(e.shards, stepShard{})
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
// the pool; below it the barrier handshake costs more than the round
// itself. Calibrated on the Byzantine committee loop at n = 1024
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
		e.cmd[w] = make(chan struct{})
		go e.workerLoop(w)
	}
	e.spawned = e.workers - 1
}

func (e *engine) workerLoop(w int) {
	for range e.cmd[w] {
		e.runShard(w)
	}
}

// runShard steps worker w's shard, recording a panic (e.g. from a node's
// Step) for runStep to re-raise, and acknowledges the barrier.
func (e *engine) runShard(w int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[w] = r
		}
		e.ack <- struct{}{}
	}()
	e.stepShard(w)
}

// runStep fans the step phase across the active workers; the coordinator
// works shard 0 itself. Once every shard has finished, the panic of the
// lowest panicking shard is re-raised on the StepRound caller.
func (e *engine) runStep() {
	if e.active == 1 {
		e.stepShard(0)
		return
	}
	e.ensureWorkers()
	for w := 1; w < e.active; w++ {
		e.cmd[w] <- struct{}{}
	}
	e.runShard(0)
	for w := 0; w < e.active; w++ {
		<-e.ack
	}
	var p any
	for w := 0; w < e.active; w++ {
		if p == nil {
			p = e.panics[w]
		}
		e.panics[w] = nil
	}
	if p != nil {
		panic(p)
	}
}

// span returns worker w's contiguous share [lo, hi) of total step
// candidates when the round runs on e.active workers.
func (e *engine) span(w, total int) (int, int) {
	return total * w / e.active, total * (w + 1) / e.active
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
	e.phaseStep()
	if len(e.rushList) > 0 {
		e.stepRushers()
	}
	if len(e.filters) > 0 {
		e.evalFilters()
	}
	e.phaseCount()
	e.planShared()
	if e.aggActive {
		e.deliverShared()
	}
	e.phaseDeliver()
	e.phaseScatter()
	e.foldMetrics()
	if e.digest != nil {
		e.digest(RoundDigest{Round: e.round, Messages: e.acc.messages, Bits: e.acc.bits, PerKind: e.acc.perKind})
	}

	// Without shared-aggregate delivery every recipient with mail is on
	// recip, so the next round may visit just awake ∪ recip; after an
	// aggregate round it scans all n again.
	e.parked = e.parkable && !e.aggActive
	for _, fn := range e.roundEnd {
		fn()
	}
	e.stepped, e.prevStepped = e.prevStepped[:0], e.stepped
	e.recip, e.prevRecip = e.prevRecip[:0], e.recip
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

// phaseStep — wave 1: every non-rushing stepping node steps against its
// inbox, the candidates split across the active workers. Nodes only
// touch their own state, so shards are independent; the engine does not
// retain the returned outbox past the round, so nodes may reuse their
// outbox buffers.
func (e *engine) phaseStep() {
	for _, i := range e.prevStepped {
		e.outs[i] = nil
	}
	if e.parked {
		// Parked round: only the awake nodes and last round's recipients
		// can do anything. Sort their union into visitList, so the
		// stepped (and the rebuilt awake) lists stay ascending.
		for _, i := range e.awake {
			e.visit[i>>6] |= 1 << (i & 63)
		}
		for _, i := range e.prevRecip {
			e.visit[i>>6] |= 1 << (i & 63)
		}
		e.visitList = e.visitList[:0]
		for k, word := range e.visit {
			if word == 0 {
				continue
			}
			e.visit[k] = 0
			for ; word != 0; word &= word - 1 {
				e.visitList = append(e.visitList, k<<6|bits.TrailingZeros64(word))
			}
		}
	}
	e.runStep()
	e.stepped, e.awake = e.stepped[:0], e.awake[:0]
	for w := 0; w < e.active; w++ {
		e.stepped = append(e.stepped, e.shards[w].stepped...)
		e.awake = append(e.awake, e.shards[w].awake...)
	}
}

// stepShard steps worker w's share of the round's candidates — its
// slice of visitList in a parked round, its node range otherwise.
func (e *engine) stepShard(w int) {
	sh := &e.shards[w]
	sh.stepped, sh.awake = sh.stepped[:0], sh.awake[:0]
	if e.parked {
		lo, hi := e.span(w, len(e.visitList))
		for _, i := range e.visitList[lo:hi] {
			e.stepOne(sh, i)
		}
		return
	}
	lo, hi := e.span(w, len(e.nodes))
	for i := lo; i < hi; i++ {
		e.stepOne(sh, i)
	}
}

// stepOne steps node i onto shard sh: elide the call if the node vouches
// for an idle round, else step it and record it on sh.stepped. In
// parkable runs it also rebuilds awake: every visited node stays on it
// except the dead, the rushing and those parked by Quiescent().
func (e *engine) stepOne(sh *stepShard, i int) {
	if e.rushing[i] || !e.shouldStep(i) {
		return
	}
	inb := e.inboxOf(i)
	if len(inb) == 0 && e.quiet[i] != nil && e.quiet[i].Quiescent() {
		return
	}
	if e.parkable {
		sh.awake = append(sh.awake, i)
	}
	if len(inb) == 0 && e.quietAt[i] != nil && e.quietAt[i].QuiescentAt(e.round) {
		return
	}
	e.outs[i] = e.nodes[i].Step(e.round, inb)
	sh.stepped = append(sh.stepped, i)
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
	for _, i := range e.stepped {
		filter := e.filters[i]
		for _, msg := range e.outs[i] {
			if msg.To >= 0 {
				if msg.To < n && e.rushing[msg.To] {
					e.preview(i, msg.To, msg.Payload, filter)
				}
				continue
			}
			// Shared entry: walk the shorter of the set's members and
			// rushList, probing the other. Both are ascending, so previews
			// (and filter calls) follow the explicit Multicast's emission
			// order either way.
			members := e.setMembers(msg.To)
			if len(members) <= len(e.rushList) {
				for _, m := range members {
					if e.rushing[m] {
						e.preview(i, int(m), msg.Payload, filter)
					}
				}
				continue
			}
			for _, r := range e.rushList {
				if containsMember(members, r) {
					e.preview(i, r, msg.Payload, filter)
				}
			}
		}
	}
	// Step the rushers, merging each into the stepped list so it stays
	// ascending. The step phase skips rushing nodes, so there are no
	// duplicates.
	e.mergeBuf = e.mergeBuf[:0]
	s := e.stepped
	j := 0
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
		e.outs[r] = e.nodes[r].Step(e.round, inbox)
		for j < len(s) && s[j] < r {
			e.mergeBuf = append(e.mergeBuf, s[j])
			j++
		}
		e.mergeBuf = append(e.mergeBuf, r)
	}
	e.mergeBuf = append(e.mergeBuf, s[j:]...)
	e.stepped, e.mergeBuf = e.mergeBuf, e.stepped
}

// preview appends sender i's payload to rusher r's preview, unless i's
// mid-send filter drops the copy.
func (e *engine) preview(i, r int, p Payload, filter SendFilter) {
	if filter != nil && !filter(r) {
		return
	}
	e.previews[r] = append(e.previews[r], Message{From: i, To: r, Payload: p})
}

// evalFilters compacts every mid-send crasher's outbox to the wire
// messages its filter lets through. Filters may share a memoizing rng
// (adversary.randomHalfFilter), so they are called once, sequentially,
// in ascending (sender, wire message) order — shared entries walked
// member-ascending, exactly the order the explicit representation emits
// them in — and routing only ever sees the survivors. A sender whose
// filter kept every wire message keeps its outbox as it was, shared
// entries included, so it stays on the aggregate path; only senders
// whose filter actually diverged pay for per-recipient copies. Only
// senders that stepped this round hold an outbox.
func (e *engine) evalFilters() {
	e.filterOrder = e.filterOrder[:0]
	wire := 0
	for s := range e.filters {
		if len(e.outs[s]) > 0 {
			e.filterOrder = append(e.filterOrder, s)
			wire += e.wireLen(e.outs[s])
		}
	}
	sort.Ints(e.filterOrder)
	if cap(e.survivors) < wire {
		e.survivors = make([]Message, 0, wire)
	}
	buf := e.survivors[:0]
	for _, s := range e.filterOrder {
		start := len(buf)
		buf = e.appendWire(buf, s, e.outs[s], e.filters[s])
		if len(buf)-start == e.wireLen(e.outs[s]) {
			buf = buf[:start]
			continue
		}
		e.outs[s] = buf[start:len(buf):len(buf)]
	}
	e.survivors = buf
}

// wireLen returns the number of wire messages in outbox out: one per
// explicit entry, |set| per shared entry.
func (e *engine) wireLen(out Outbox) int {
	total := 0
	for _, msg := range out {
		if msg.To < 0 {
			total += len(e.setMembers(msg.To))
		} else {
			total++
		}
	}
	return total
}

// appendWire appends to buf sender s's outbox out as wire messages, in
// the exact order the eager representation emits them — shared entries
// written out ascending over the set's members — keeping those filter
// admits (every one when filter is nil) and calling filter once per wire
// message in that order. buf must have room for wireLen(out) more
// messages: each one is written unconditionally and the verdict only
// decides whether the cursor moves past it, which keeps the coin-flip
// verdicts off the branch predictor.
func (e *engine) appendWire(buf []Message, s int, out Outbox, filter SendFilter) []Message {
	if filter == nil {
		// A per-message nil test instead made the filtered loop ~40%
		// slower in BenchmarkMidSendCompaction.
		filter = keepAll
	}
	n := len(e.nodes)
	k := len(buf)
	buf = buf[:cap(buf)]
	for _, msg := range out {
		if msg.To >= 0 {
			if msg.To >= n {
				panic(fmt.Sprintf("sim: node %d sent to invalid link %d", s, msg.To))
			}
			buf[k] = msg
			if filter(msg.To) {
				k++
			}
			continue
		}
		for _, m := range e.setMembers(msg.To) {
			buf[k] = Message{From: msg.From, To: int(m), Payload: msg.Payload}
			if filter(int(m)) {
				k++
			}
		}
	}
	return buf[:k]
}

// keepAll is the SendFilter that keeps every wire message.
func keepAll(int) bool { return true }

// setMembers returns the members of the set a shared sentinel names,
// ascending, panicking on a sentinel no set backs.
func (e *engine) setMembers(to int) []int32 {
	sid := toSetID(to)
	if !e.sets.valid(sid) {
		panic(fmt.Sprintf("sim: message addressed to unknown set %d", sid))
	}
	return e.sets.membersOf(sid)
}

// phaseCount resets the counter cells the previous round dirtied (its
// recipients — scatter left its write cursors there), then walks the
// senders that stepped, counting surviving messages per recipient and
// accumulating communication metrics.
func (e *engine) phaseCount() {
	for _, to := range e.prevRecip {
		e.counts[to] = 0
	}
	e.recip = e.recip[:0]
	e.sharedFrom = e.sharedFrom[:0]
	e.expanded = e.expanded[:0]
	e.acc.reset()
	for _, i := range e.stepped {
		e.countSender(i)
	}
}

// countSender counts one stepped sender's surviving messages into the
// per-recipient counters and the round's accumulator, appending every
// recipient to e.recip the first time its counter leaves zero.
//
// A sender whose outbox is exactly one shared entry — mid-send filtering
// has already compacted any diverged outbox to explicit survivors —
// takes the aggregate path: one addN bills the full fan-out, the
// per-recipient counters stay untouched, and the sender joins sharedFrom
// for planShared/deliverShared. An outbox that mixes shared entries with
// anything else is expanded into explicit messages first, preserving its
// emission order exactly — shared targets never reach the explicit loop
// below.
func (e *engine) countSender(i int) {
	out := e.outs[i]
	if len(out) == 0 {
		return
	}
	n := len(e.nodes)
	limit := e.metrics.CongestLimit
	honest := !e.byzantine[i]
	if len(out) == 1 && out[0].To < 0 {
		msg := &out[0]
		// One entry, fan wire messages: Kind/Bits are evaluated once
		// (payloads are immutable in flight), and addN accounts exactly
		// as fan consecutive adds would.
		fan := int64(len(e.setMembers(msg.To)))
		e.acc.addN(msg.Payload.Kind(), msg.Payload.Bits(), fan, honest, limit)
		e.metrics.PerNodeSent[i] += fan
		e.sharedFrom = append(e.sharedFrom, int32(i))
		return
	}
	for k := range out {
		if out[k].To < 0 {
			// Mixed outbox (shared entries alongside others, or several
			// shared entries): expand to explicit messages so delivery
			// order within the sender is preserved verbatim.
			start := len(e.expanded)
			e.expanded = e.appendWire(slices.Grow(e.expanded, e.wireLen(out)), i, out, nil)
			out = e.expanded[start:len(e.expanded):len(e.expanded)]
			e.outs[i] = out
			break
		}
	}
	counts := e.counts
	var sent int64
	for k := range out {
		msg := &out[k]
		if msg.To < 0 || msg.To >= n {
			panic(fmt.Sprintf("sim: node %d sent to invalid link %d", i, msg.To))
		}
		if counts[msg.To] == 0 {
			e.recip = append(e.recip, msg.To)
		}
		counts[msg.To]++
		sent++
		e.acc.add(msg.Payload.Kind(), msg.Payload.Bits(), honest, limit)
	}
	e.metrics.PerNodeSent[i] += sent
}

// planShared runs between the count and deliver phases: it discovers
// this round's distinct shared targets, sizes each by its pure-shared
// senders and carves one aggregate segment per target out of the parity
// aggregate slab. Rounds without shared traffic return at once.
func (e *engine) planShared() {
	e.actSets = e.actSets[:0]
	e.aggActive = len(e.sharedFrom) > 0
	if !e.aggActive {
		return
	}
	for _, from := range e.sharedFrom {
		id := toSetID(e.outs[from][0].To)
		idx := e.actIdx(id)
		if idx < 0 {
			idx = len(e.actSets)
			e.actSets = slices.Grow(e.actSets, 1)[:idx+1]
			e.actSets[idx] = actSet{id: id, merged: e.actSets[idx].merged[:0]}
		}
		e.actSets[idx].total++
	}
	buf := e.aggSlabs[e.round&1].fill(len(e.sharedFrom))
	off := 0
	for i := range e.actSets {
		a := &e.actSets[i]
		a.seg = buf[off : off+a.total : off+a.total]
		a.cur = 0
		off += a.total
	}
}

// actIdx returns the actSets index of set id, or -1. Linear: a round has
// a handful of distinct shared targets at most.
func (e *engine) actIdx(id int) int {
	for i := range e.actSets {
		if e.actSets[i].id == id {
			return i
		}
	}
	return -1
}

// deliverShared classifies the members of this round's shared sets
// before the inbox views are carved. A member is classified once, at the
// first active set that covers it, so only later sets can also hold it.
// A member with no explicit mail that no later set holds is bound to the
// segment zero-copy (the view still carries the sender's To sentinel).
// Every other member is counted like an explicit recipient: each set
// covering it adds its senders to the member's counter and lists the
// member on its merged list, which phaseScatter writes through.
func (e *engine) deliverShared() {
	stamp := uint32(e.round) + 1
	for idx := range e.actSets {
		a := &e.actSets[idx]
		for _, m32 := range e.sets.membersOf(a.id) {
			m := int(m32)
			if e.clsGen[m] == stamp {
				continue
			}
			e.clsGen[m] = stamp
			bound := e.counts[m] == 0
			for k := idx + 1; bound && k < len(e.actSets); k++ {
				bound = !containsMember(e.sets.membersOf(e.actSets[k].id), m)
			}
			if bound {
				e.nextInb[m] = a.seg
				e.nextGen[m] = stamp
				e.metrics.PerNodeReceived[m] += int64(a.total)
				continue
			}
			if e.counts[m] == 0 {
				e.recip = append(e.recip, m)
			}
			for k := idx; k < len(e.actSets); k++ {
				c := &e.actSets[k]
				if k == idx || containsMember(e.sets.membersOf(c.id), m) {
					e.counts[m] += int32(c.total)
					c.merged = append(c.merged, m32)
				}
			}
		}
	}
}

// phaseDeliver carves this round's inbox views out of the parity slab,
// one per recipient on recip, sized by its counter — the counting sort's
// allocation step. Every view starts at slot zero, so resetting the
// counter to zero doubles as the prefix pass and leaves it as scatter's
// write cursor. The order of views within the slab (recipient discovery
// order) is immaterial. Recipients without traffic are never touched:
// their table entry keeps a stale view that inboxOf's generation check
// filters out.
func (e *engine) phaseDeliver() {
	stamp := uint32(e.round) + 1
	var total int
	for _, to := range e.recip {
		total += int(e.counts[to])
	}
	buf := e.slabs[e.round&1].fill(total)
	off := 0
	for _, to := range e.recip {
		cnt := int(e.counts[to])
		e.counts[to] = 0
		e.metrics.PerNodeReceived[to] += int64(cnt)
		e.nextInb[to] = buf[off : off+cnt : off+cnt]
		e.nextGen[to] = stamp
		off += cnt
	}
}

// phaseScatter places every stepped sender's surviving messages in its
// recipients' views, stamping the true sender (authenticated channels).
// The stepped list is ascending, so slots are assigned in sender order. A
// pure-shared sender's entry goes to its set's aggregate segment and, To
// rewritten, to every merged member's view; mixed outboxes were expanded
// during the count phase, so no shared target ever reaches the
// per-message loop.
func (e *engine) phaseScatter() {
	counts := e.counts
	for _, i := range e.stepped {
		out := e.outs[i]
		if len(out) == 1 && out[0].To < 0 {
			msg := out[0]
			msg.From = i
			a := &e.actSets[e.actIdx(toSetID(msg.To))]
			a.seg[a.cur] = msg
			a.cur++
			for _, m := range a.merged {
				msg.To = int(m)
				pos := counts[m]
				counts[m] = pos + 1
				e.nextInb[m][pos] = msg
			}
			continue
		}
		for k := range out {
			msg := out[k]
			msg.From = i
			pos := counts[msg.To]
			counts[msg.To] = pos + 1
			e.nextInb[msg.To][pos] = msg
		}
	}
}

// foldMetrics merges the round's accumulator into the public Metrics at
// the end of the round.
func (e *engine) foldMetrics() {
	m := e.metrics
	a := &e.acc
	a.flushRun()
	m.Messages += a.messages
	m.Bits += a.bits
	m.HonestMessages += a.honestMessages
	m.HonestBits += a.honestBits
	m.OversizeMessages += a.oversize
	if a.maxMessageBits > m.MaxMessageBits {
		m.MaxMessageBits = a.maxMessageBits
	}
	for k, v := range a.perKind {
		m.PerKind[k] += v
	}
	for k, v := range a.perKindBits {
		m.PerKindBits[k] += v
	}
	e.lastMsgs = a.messages
}
