package sim

import (
	"fmt"
	"math/rand"
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

func fleetLog(nodes []*mixNode) string {
	var b strings.Builder
	for _, nd := range nodes {
		b.WriteString(nd.log.String())
	}
	return b.String()
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
		recordDigests(&digests),
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
			diffRuns(t, fmt.Sprintf("workers=%d eager=%v", workers, eager), got, want)
		}
	}
}
