package sim

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"testing"
)

// pongPayload is a second payload kind so the per-kind run-length cache
// sees kind transitions.
type pongPayload struct{ size int }

func (pongPayload) Kind() string { return "pong" }
func (p pongPayload) Bits() int  { return p.size }

// detNode is a deterministic chaotic node: its state is a hash of every
// inbox it has seen, and its outbox (recipients, sizes, kinds) is a pure
// function of that state. Any deviation in delivery order, filtering, or
// preview content diverges the state hash and cascades.
type detNode struct {
	idx, n int
	state  uint64
}

func (d *detNode) Step(round int, inbox []Message) Outbox {
	h := d.state*1099511628211 + uint64(round)
	for _, msg := range inbox {
		h = (h ^ uint64(msg.From)) * 1099511628211
		h = (h ^ uint64(msg.Payload.Bits())) * 1099511628211
	}
	d.state = h
	var out Outbox
	fan := int(h%5) + 1
	for k := 0; k < fan; k++ {
		to := int((h >> (4 * k)) % uint64(d.n))
		size := int((h>>(3*k))%40) + 1
		if k%2 == 0 {
			out = append(out, Message{To: to, Payload: pingPayload{size: size}})
		} else {
			out = append(out, Message{To: to, Payload: pongPayload{size: size}})
		}
	}
	return out
}
func (d *detNode) Output() (int, bool) { return int(d.state), true }
func (d *detNode) Halted() bool        { return false }

// sharedRNGAdversary crashes two nodes per round in rounds 2..9, giving
// the first a mid-send filter that memoizes per-recipient coin flips from
// a *shared* rng — the statefulness pattern of adversary.randomHalfFilter
// that forces filter evaluation into a deterministic sequential order.
type sharedRNGAdversary struct{ rng *rand.Rand }

func (a *sharedRNGAdversary) Crashes(v View) []CrashOrder {
	if v.Round < 2 || v.Round > 9 {
		return nil
	}
	var orders []CrashOrder
	for i := 0; len(orders) < 2 && i < len(v.Alive); i++ {
		idx := (v.Round*7 + i*13) % len(v.Alive)
		if !v.Alive[idx] {
			continue
		}
		order := CrashOrder{Node: idx}
		if len(orders) == 0 {
			decided := make(map[int]bool)
			rng := a.rng
			order.Filter = func(to int) bool {
				if v, ok := decided[to]; ok {
					return v
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

// newDetScenario builds a fixed adversarial scenario (crashes with
// shared-rng mid-send filters, Byzantine and rushing links, a CONGEST
// budget) at the given engine worker count, with extra options such as
// a round digest appended.
func newDetScenario(workers int, opts ...Option) (*Network, []*detNode) {
	const n = 48
	nodes := make([]*detNode, n)
	simNodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &detNode{idx: i, n: n, state: uint64(i) + 1}
		simNodes[i] = nodes[i]
	}
	nw := NewNetwork(simNodes, append([]Option{
		WithCrashAdversary(&sharedRNGAdversary{rng: rand.New(rand.NewSource(42))}),
		WithByzantine([]int{3, 17, 31}),
		WithRushing([]int{3, 17}),
		WithCongestLimit(24),
		WithEngineWorkers(workers),
	}, opts...)...)
	return nw, nodes
}

// runDetScenario executes the det scenario at the given engine worker
// count and returns a fingerprint of everything observable: the
// per-round wire stream, final node states, crash schedule, and every
// metric.
func runDetScenario(t *testing.T, workers int) string {
	t.Helper()
	wire := fnv.New64a()
	nw, nodes := newDetScenario(workers)
	defer nw.Close()
	var delivered []Message
	for r := 0; r < 16; r++ {
		delivered = stepDelivered(nw, delivered)
		fmt.Fprintf(wire, "r%d:", r)
		for _, msg := range delivered {
			fmt.Fprintf(wire, "%d>%d/%s/%d;", msg.From, msg.To, msg.Payload.Kind(), msg.Payload.Bits())
		}
	}
	m := nw.Metrics()
	fp := fmt.Sprintf("wire=%x %s honest=%d/%d oversize=%d sent=%v recv=%v",
		wire.Sum64(), m, m.HonestMessages, m.HonestBits, m.OversizeMessages,
		m.PerNodeSent, m.PerNodeReceived)
	for i := range nodes {
		fp += fmt.Sprintf(" s%d=%x@%d", i, nodes[i].state, nw.CrashedAt(i))
	}
	return fp
}

// stepDelivered steps nw one round and returns the messages the round
// put on the wire (post crash filtering): every recipient's next inbox,
// recipients ascending, with To set to the recipient. buf is reused.
func stepDelivered(nw *Network, buf []Message) []Message {
	nw.StepRound()
	buf = buf[:0]
	for i := range nw.nodes {
		for _, msg := range nw.inboxOf(i) {
			msg.To = i
			buf = append(buf, msg)
		}
	}
	return buf
}

// TestRoundDigestMatchesDelivered pins the digest contract telemetry
// relies on: on the det scenario, each round's RoundDigest carries
// exactly the message count, bits and per-kind counts of the messages
// the round delivers, quiet rounds included.
func TestRoundDigestMatchesDelivered(t *testing.T) {
	type tally struct {
		round          int
		messages, bits int64
		perKind        map[string]int64
	}
	for _, workers := range []int{1, 4} {
		var observed, digested []tally
		nw, _ := newDetScenario(workers,
			WithRoundDigest(func(d RoundDigest) {
				digested = append(digested, tally{round: d.Round, messages: d.Messages, bits: d.Bits, perKind: maps.Clone(d.PerKind)})
			}))
		var delivered []Message
		for round := 0; round < 16; round++ {
			delivered = stepDelivered(nw, delivered)
			r := tally{round: round, perKind: make(map[string]int64)}
			for _, msg := range delivered {
				r.messages++
				r.bits += int64(msg.Payload.Bits())
				r.perKind[msg.Payload.Kind()]++
			}
			observed = append(observed, r)
		}
		nw.Close()
		if len(observed) != 16 || len(digested) != 16 {
			t.Fatalf("workers=%d: %d observed and %d digested rounds, want 16 each", workers, len(observed), len(digested))
		}
		for i := range observed {
			o, d := observed[i], digested[i]
			if o.round != d.round || o.messages != d.messages || o.bits != d.bits || !maps.Equal(o.perKind, d.perKind) {
				t.Fatalf("workers=%d round %d: digest %+v, delivered %+v", workers, i, d, o)
			}
		}
	}
}

// TestEngineDeterministicAcrossWorkers is the tentpole safety net: the
// sharded engine must produce bit-identical executions at every worker
// count, including stateful mid-send crash filters, rushing previews,
// and the full metrics fold.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	want := runDetScenario(t, 1)
	for _, p := range []int{2, 3, 5, 8, 64} {
		if got := runDetScenario(t, p); got != want {
			t.Fatalf("workers=%d diverged from workers=1:\n got %s\nwant %s", p, got, want)
		}
	}
}

// TestEngineWorkerClamp checks that worker counts beyond n (or absurd
// values) clamp to a full shard cover: every node belongs to exactly one
// shard and the simulation still runs.
func TestEngineWorkerClamp(t *testing.T) {
	_, simNodes := buildEcho(3, 0)
	nw := NewNetwork(simNodes, WithEngineWorkers(16))
	defer nw.Close()
	if nw.workers != 3 {
		t.Fatalf("workers = %d, want clamp to n = 3", nw.workers)
	}
	covered := 0
	for w := 0; w < nw.workers; w++ {
		lo, hi := nw.span(w, 3)
		covered += hi - lo
	}
	if covered != 3 {
		t.Fatalf("shards cover %d nodes, want 3", covered)
	}
	nw.StepRound()
	nw.StepRound()
	if nw.Metrics().Messages != 9 {
		t.Fatalf("messages = %d, want 9", nw.Metrics().Messages)
	}
}

// TestCloseIdempotent checks that Close can be called repeatedly (defer +
// finalizer both run) without panicking or deadlocking.
func TestCloseIdempotent(t *testing.T) {
	_, simNodes := buildEcho(4, 0)
	nw := NewNetwork(simNodes, WithEngineWorkers(2))
	nw.StepRound()
	nw.Close()
	nw.Close()
}

// TestInvalidLinkPanicsParallel mirrors TestInvalidLinkPanics at a
// multi-worker count: the panic must propagate to the StepRound caller,
// not kill the process from a bare goroutine. Routing, which rejects the
// invalid link, runs on the coordinator; the second half covers the
// pool's own recover path with a node whose Step panics inside a worker
// shard, and checks that the pooled engine still runs the next lease
// exactly like a fresh one.
func TestInvalidLinkPanicsParallel(t *testing.T) {
	bad := sendNode{badLink}
	nodes := []Node{bad, bad, bad, bad}
	nw := NewNetwork(nodes, WithEngineWorkers(4))
	defer nw.Close()
	if recovered(nw.StepRound) == nil {
		t.Fatal("expected panic for invalid link")
	}

	pool := NewPool()
	defer pool.Close()
	_, simNodes := buildEcho(4, 1)
	// Four nodes on four workers: node 3 is stepped by worker 3.
	simNodes[3] = stepPanicNode{}
	leased := pool.Acquire(simNodes, WithEngineWorkers(4))
	if got := recovered(leased.StepRound); got != stepPanicValue {
		t.Fatalf("StepRound panicked with %v, want the worker's %q", got, stepPanicValue)
	}
	leased.Close()

	freshNodes, freshSim := buildEcho(4, 1)
	want := runFingerprint(t, NewNetwork(freshSim, WithEngineWorkers(4)), freshNodes, 4)
	poolNodes, poolSim := buildEcho(4, 1)
	if got := runFingerprint(t, pool.Acquire(poolSim, WithEngineWorkers(4)), poolNodes, 4); got != want {
		t.Fatalf("lease after a worker panic diverged from a fresh run:\npooled:\n%s\nfresh:\n%s", got, want)
	}
}

// stepPanicNode panics inside Step with stepPanicValue.
type stepPanicNode struct{}

const stepPanicValue = "node step panic"

func (stepPanicNode) Step(int, []Message) Outbox { panic(stepPanicValue) }
func (stepPanicNode) Output() (int, bool)        { return 0, false }
func (stepPanicNode) Halted() bool               { return false }

// recovered runs fn and returns the value it panicked with, or nil.
func recovered(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}
