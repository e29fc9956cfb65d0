package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkStepRound measures the engine's per-round cost — the framework
// overhead underneath every experiment — across the two traffic shapes
// the algorithms produce: "dense" is the all-to-all load of the
// baselines (Θ(n²) messages per round), "sparse" is the committee-style
// load of the paper's algorithms (Θ(n·log n) messages per round). The CI
// smoke job runs this at -benchtime 1x to catch engine regressions.
func BenchmarkStepRound(b *testing.B) {
	dense := []int{64, 256, 1024, 4096}
	sparse := []int{1024, 4096, 32768}
	for _, n := range dense {
		n := n
		b.Run(fmt.Sprintf("dense/n=%d", n), func(b *testing.B) {
			benchRounds(b, chatterNodes(n))
		})
	}
	for _, n := range sparse {
		n := n
		b.Run(fmt.Sprintf("sparse/n=%d", n), func(b *testing.B) {
			benchRounds(b, sparseNodes(n))
		})
	}
}

func benchRounds(b *testing.B, nodes []Node) {
	nw := NewNetwork(nodes)
	defer nw.Close()
	// Warm two rounds so both halves of the engine's double-buffered
	// inboxes have grown to steady-state capacity — after that, the
	// allocation counter sees only genuine per-round costs.
	nw.StepRound()
	nw.StepRound()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.StepRound()
	}
	b.ReportMetric(float64(nw.Metrics().Messages)/float64(nw.Round()), "msgs/round")
}

func chatterNodes(n int) []Node {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &chatterNode{idx: i, n: n}
	}
	return nodes
}

// chatterNode broadcasts every round forever, reusing its outbox buffer
// (the engine does not retain outboxes past the round — see Node).
type chatterNode struct {
	idx, n int
	out    Outbox
}

func (c *chatterNode) Step(round int, inbox []Message) Outbox {
	if c.out == nil {
		c.out = Broadcast(c.idx, c.n, pingPayload{size: 32})
	}
	return c.out
}
func (c *chatterNode) Output() (int, bool) { return 0, false }
func (c *chatterNode) Halted() bool        { return false }

func sparseNodes(n int) []Node {
	fanout := 1
	for v := n - 1; v > 0; v >>= 1 {
		fanout++
	}
	fanout *= 2 // ~2·log2 n peers, the committee-style load
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = &sparseNode{idx: i, n: n, fanout: fanout}
	}
	return nodes
}

// sparseNode multicasts to a deterministic stride of ~2·log2 n peers,
// reusing its outbox buffer across rounds.
type sparseNode struct {
	idx, n, fanout int
	out            Outbox
}

func (s *sparseNode) Step(round int, inbox []Message) Outbox {
	if s.out == nil {
		s.out = make(Outbox, 0, s.fanout)
		for k := 0; k < s.fanout; k++ {
			to := (s.idx + 1 + k*(s.n/s.fanout+1)) % s.n
			s.out = append(s.out, Message{From: s.idx, To: to, Payload: pingPayload{size: 32}})
		}
	}
	return s.out
}
func (s *sparseNode) Output() (int, bool) { return 0, false }
func (s *sparseNode) Halted() bool        { return false }

// BenchmarkMidSendCompaction measures the engine's mid-send filter layer
// at the crash-killer scale, n = 16384: 16 committee members crash
// mid-way through their Notify broadcast in one round, each with a
// random-half filter drawing from one shared rng (the
// adversary.CommitteeKiller pattern), and evalFilters compacts their
// ToAll outboxes to the surviving wire messages.
func BenchmarkMidSendCompaction(b *testing.B) {
	const n, crashers = 16384, 16
	e := newEngine(sparseNodes(n))
	e.finishSetup()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(e.filters)
		for s := 0; s < crashers; s++ {
			e.outs[s] = Outbox{{From: s, To: ToAll, Payload: pingPayload{size: 1}}}
			e.filters[s] = halfFilter(rng)
		}
		e.evalFilters()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*crashers*n), "ns/wire")
}

// halfFilter keeps each recipient with probability 1/2, memoized per
// recipient in a dense table, drawing from the given (shared) rng.
func halfFilter(rng *rand.Rand) SendFilter {
	var memo []uint8
	return func(to int) bool {
		if to >= len(memo) {
			memo = append(memo, make([]uint8, to+1-len(memo))...)
		}
		if memo[to] == 0 {
			memo[to] = 1 + uint8(rng.Intn(2))
		}
		return memo[to] == 2
	}
}
