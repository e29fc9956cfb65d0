package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mixNode emits every outbox shape mid-send compaction must handle: a
// lone ToSet or ToAll entry (the aggregate path), mixed outboxes that
// interleave unicasts with ToSet and ToAll entries, and unicasts with
// repeated recipients. Its state hashes every inbox it has seen and its
// outbox is a pure function of that state, so any difference in what a
// node receives cascades. It logs each delivered message's sender and
// content (never To, which the engine leaves unspecified on bound views).
type mixNode struct {
	idx, n int
	state  uint64
	sets   *Sets
	log    strings.Builder
}

func (m *mixNode) UseSets(s *Sets) { m.sets = s }

func (m *mixNode) Step(round int, inbox []Message) Outbox {
	h := m.state*1099511628211 + uint64(round)
	for _, msg := range inbox {
		h = (h ^ uint64(msg.From)) * 1099511628211
		h = (h ^ uint64(msg.Payload.Bits())) * 1099511628211
		fmt.Fprintf(&m.log, "r%d n%d<-%d:%s/%d;", round, m.idx, msg.From, msg.Payload.Kind(), msg.Payload.Bits())
	}
	m.state = h
	payload := Payload(pingPayload{size: int(h%32) + 1})
	if h>>5&1 == 1 {
		payload = pongPayload{size: int(h>>6%32) + 1}
	}
	a, b := int(h>>11%uint64(m.n)), int(h>>17%uint64(m.n))
	uni := func(to int) Message { return Message{From: m.idx, To: to, Payload: payload} }
	var out Outbox
	switch h >> 23 % 6 {
	case 0:
		out = m.castSet(round, payload)
	case 1:
		out = Outbox{{From: m.idx, To: ToAll, Payload: payload}}
	case 2:
		out = append(Outbox{uni(a)}, m.castSet(round, payload)...)
		out = append(out, uni(a), uni(b))
	case 3:
		out = Outbox{{From: m.idx, To: ToAll, Payload: payload}}
		out = append(out, m.castSet(round, payload)...)
		out = append(out, uni(b))
	case 4:
		out = Outbox{uni(a), uni(b), uni(a), uni(a)}
	}
	return out
}

// castSet multicasts to the node's group set for the round: one shared
// ToSet entry when the registry interns it, explicit copies otherwise.
// The three groups' sets overlap, so covered recipients see merges.
func (m *mixNode) castSet(round int, payload Payload) Outbox {
	g := m.idx % 3
	var members []int
	for j := 0; j < m.n; j++ {
		if (j*7+round+g)%3 == 0 || j%5 == g {
			members = append(members, j)
		}
	}
	if m.sets != nil {
		if id, ok := m.sets.InternPhase(uint64(round)<<8|uint64(g+1), members); ok {
			return Outbox{{From: m.idx, To: ToSet(id), Payload: payload}}
		}
	}
	return Multicast(m.idx, members, payload)
}

func (m *mixNode) Output() (int, bool) { return 0, false }
func (m *mixNode) Halted() bool        { return false }

// compactAdversary crashes four nodes per round in rounds 1..8, each
// with one of the mid-send shapes: keep everything, keep nothing, keep a
// random half through a rng shared by every filter it issues (memoized
// per recipient, the adversary.randomHalfFilter pattern whose results
// depend on the exact filter-call order; most rounds issue two), or
// crash before sending.
type compactAdversary struct{ rng *rand.Rand }

func (a *compactAdversary) Crashes(v View) []CrashOrder {
	if v.Round < 1 || v.Round > 8 {
		return nil
	}
	var orders []CrashOrder
	for i := 0; len(orders) < 4 && i < len(v.Alive); i++ {
		idx := (v.Round*11 + i*7) % len(v.Alive)
		if !v.Alive[idx] {
			continue
		}
		order := CrashOrder{Node: idx}
		switch (v.Round + len(orders)) % 5 {
		case 0:
			order.Filter = func(int) bool { return true }
		case 1:
			order.Filter = func(int) bool { return false }
		case 2, 3:
			decided := map[int]bool{}
			rng := a.rng
			order.Filter = func(to int) bool {
				if keep, ok := decided[to]; ok {
					return keep
				}
				keep := rng.Intn(2) == 0
				decided[to] = keep
				return keep
			}
		}
		orders = append(orders, order)
	}
	return orders
}

const (
	compactN      = 48
	compactRounds = 14
	compactSeed   = 99
)

func newMixFleet() ([]*mixNode, []Node) {
	nodes := make([]*mixNode, compactN)
	simNodes := make([]Node, compactN)
	for i := range nodes {
		nodes[i] = &mixNode{idx: i, n: compactN, state: uint64(i)*0x9e3779b9 + 1}
		simNodes[i] = nodes[i]
	}
	return nodes, simNodes
}

// compactRun is everything a differential run compares.
type compactRun struct {
	log     string
	metrics Metrics
	digests []RoundDigest
}

func fleetLog(nodes []*mixNode) string {
	var b strings.Builder
	for _, nd := range nodes {
		b.WriteString(nd.log.String())
	}
	return b.String()
}

// refScenario is one execution for the sequential reference: a fresh
// fleet, its crash adversary (and Peek), the rushing and Byzantine links
// and the round count.
type refScenario struct {
	nodes     []Node
	adv       CrashAdversary
	peek      func(node int) any
	rushing   []int // ascending
	byzantine []int
	rounds    int
	limit     int
}

// runReference executes a scenario on the obvious sequential model the
// engine used to implement literally. Every alive non-rushing node with
// an empty inbox is polled every round and stepped unless it vouches
// idle (Quiescent first, then QuiescentAt). Rushing nodes then step with
// their inbox plus a preview of this round's messages addressed to them.
// Every outbox is expanded to explicit per-recipient messages. A mid-send
// filter is called once per previewed message, then once per wire
// message in (sender, emission) order, with its verdict kept per
// message. Kept messages are billed and appended to their recipient's
// next inbox, senders ascending.
func runReference(sc refScenario) (Metrics, []RoundDigest) {
	nodes := sc.nodes
	n := len(nodes)
	sets := &Sets{}
	sets.reset(n, false)
	for _, nd := range nodes {
		if su, ok := nd.(SetUser); ok {
			su.UseSets(sets)
		}
	}
	rushing := make([]bool, n)
	for _, r := range sc.rushing {
		rushing[r] = true
	}
	byzantine := make([]bool, n)
	for _, b := range sc.byzantine {
		byzantine[b] = true
	}
	m := NewMetrics()
	m.sizeFor(n)
	m.CongestLimit = sc.limit
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	expand := func(s int, out Outbox) []Message {
		var wire []Message
		for _, msg := range out {
			switch {
			case msg.To == ToAll:
				for to := 0; to < n; to++ {
					wire = append(wire, Message{From: s, To: to, Payload: msg.Payload})
				}
			case msg.To <= toSetBase:
				for _, to := range sets.membersOf(toSetID(msg.To)) {
					wire = append(wire, Message{From: s, To: int(to), Payload: msg.Payload})
				}
			default:
				wire = append(wire, Message{From: s, To: msg.To, Payload: msg.Payload})
			}
		}
		return wire
	}
	inboxes := make([][]Message, n)
	var digests []RoundDigest
	for r := 0; r < sc.rounds; r++ {
		view := View{Round: r, Alive: append([]bool(nil), alive...), Inbox: func(i int) []Message { return inboxes[i] }, Peek: sc.peek}
		filters := map[int]SendFilter{}
		for _, o := range sc.adv.Crashes(view) {
			if o.Node < 0 || o.Node >= n || !alive[o.Node] {
				continue
			}
			alive[o.Node] = false
			if o.Filter != nil {
				filters[o.Node] = o.Filter
			}
		}
		steps := func(i int) bool {
			_, midSend := filters[i]
			return alive[i] || midSend
		}
		wire := make([][]Message, n)
		for i, nd := range nodes {
			if rushing[i] || !steps(i) || len(inboxes[i]) == 0 && vouchesIdle(nd, r) {
				continue
			}
			wire[i] = expand(i, nd.Step(r, inboxes[i]))
		}
		previews := make([][]Message, n)
		for s := range wire {
			for _, msg := range wire[s] {
				if !rushing[msg.To] || filters[s] != nil && !filters[s](msg.To) {
					continue
				}
				previews[msg.To] = append(previews[msg.To], msg)
			}
		}
		for _, i := range sc.rushing {
			if steps(i) {
				inbox := append(append([]Message(nil), inboxes[i]...), previews[i]...)
				wire[i] = expand(i, nodes[i].Step(r, inbox))
			}
		}
		next := make([][]Message, n)
		d := RoundDigest{Round: r, PerKind: map[string]int64{}}
		for s := 0; s < n; s++ {
			keep := make([]bool, len(wire[s]))
			for k := range wire[s] {
				keep[k] = filters[s] == nil || filters[s](wire[s][k].To)
			}
			for k, msg := range wire[s] {
				if !keep[k] {
					continue
				}
				kind, bits := msg.Payload.Kind(), msg.Payload.Bits()
				m.Messages++
				m.Bits += int64(bits)
				if !byzantine[s] {
					m.HonestMessages++
					m.HonestBits += int64(bits)
				}
				m.MaxMessageBits = max(m.MaxMessageBits, bits)
				if sc.limit > 0 && bits > sc.limit {
					m.OversizeMessages++
				}
				m.PerKind[kind]++
				m.PerKindBits[kind] += int64(bits)
				m.PerNodeSent[s]++
				m.PerNodeReceived[msg.To]++
				d.Messages++
				d.Bits += int64(bits)
				d.PerKind[kind]++
				next[msg.To] = append(next[msg.To], msg)
			}
		}
		digests = append(digests, d)
		inboxes = next
	}
	m.Rounds = sc.rounds
	return *m, digests
}

// vouchesIdle polls nd's quiescence contracts in the engine's order.
func vouchesIdle(nd Node, round int) bool {
	if q, ok := nd.(Quiescent); ok && q.Quiescent() {
		return true
	}
	if q, ok := nd.(ScheduleQuiescent); ok && q.QuiescentAt(round) {
		return true
	}
	return false
}

// runReferenceEngine replays the mid-send compaction scenario on the
// sequential reference.
func runReferenceEngine(limit int) compactRun {
	nodes, simNodes := newMixFleet()
	m, digests := runReference(refScenario{
		nodes:  simNodes,
		adv:    &compactAdversary{rng: rand.New(rand.NewSource(compactSeed))},
		rounds: compactRounds,
		limit:  limit,
	})
	return compactRun{log: fleetLog(nodes), metrics: m, digests: digests}
}

func runCompactEngine(t *testing.T, workers int, eager bool, limit int) compactRun {
	t.Helper()
	nodes, simNodes := newMixFleet()
	var digests []RoundDigest
	opts := []Option{
		WithCrashAdversary(&compactAdversary{rng: rand.New(rand.NewSource(compactSeed))}),
		WithEngineWorkers(workers),
		WithCongestLimit(limit),
		WithRoundDigest(func(d RoundDigest) {
			kinds := make(map[string]int64, len(d.PerKind))
			for k, v := range d.PerKind {
				kinds[k] = v
			}
			d.PerKind = kinds
			digests = append(digests, d)
		}),
	}
	if eager {
		opts = append(opts, WithEagerMulticast())
	}
	nw := NewNetwork(simNodes, opts...)
	defer nw.Close()
	for r := 0; r < compactRounds; r++ {
		nw.StepRound()
	}
	return compactRun{log: fleetLog(nodes), metrics: *nw.Metrics(), digests: digests}
}

// TestMidSendCompactionMatchesReference is the differential check of
// survivor compaction: the engine — filtered outboxes compacted to their
// surviving wire messages, all-kept shared outboxes left shared — must
// deliver exactly what the per-message-verdict reference delivers, with
// the same billing and round digests, at 1, 2 and 8 workers, with and
// without shared multicasts.
func TestMidSendCompactionMatchesReference(t *testing.T) {
	const limit = 24
	want := runReferenceEngine(limit)
	if want.metrics.Messages == 0 || !strings.Contains(want.log, "pong") {
		t.Fatal("reference scenario produced no mixed traffic")
	}
	for _, workers := range []int{1, 2, 8} {
		for _, eager := range []bool{false, true} {
			got := runCompactEngine(t, workers, eager, limit)
			name := fmt.Sprintf("workers=%d eager=%v", workers, eager)
			if got.log != want.log {
				t.Errorf("%s: delivered inboxes diverge from the reference at byte %d", name, firstDiff(got.log, want.log))
			}
			if !reflect.DeepEqual(got.metrics, want.metrics) {
				t.Errorf("%s: metrics\n got %+v\nwant %+v", name, got.metrics, want.metrics)
			}
			if !reflect.DeepEqual(got.digests, want.digests) {
				t.Errorf("%s: round digests\n got %+v\nwant %+v", name, got.digests, want.digests)
			}
		}
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
