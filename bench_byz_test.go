package renaming_test

import (
	"fmt"
	"testing"

	"renaming"
	"renaming/internal/core"
	"renaming/internal/sim"
)

// BenchmarkByzStepRound measures the steady-state per-round cost of the
// Byzantine-resilient algorithm's hot path — the committee loop with
// split-world attackers forcing divide-and-conquer recursion — at the
// scales the Theorem 1.3 sweeps run at. The CI bench-smoke job runs this
// at -benchtime 1x to catch Byzantine-path performance regressions.
func BenchmarkByzStepRound(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ids, err := renaming.GenerateIDs(n, 8*n, renaming.IDsEven, int64(n))
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.ByzConfig{N: 8 * n, IDs: ids, Seed: int64(n), PoolProb: 16.0 / float64(n)}
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			cfg = cfg.Precompute() // share the candidate pool across nodes, as harnesses do
			build := func() *sim.Network {
				nodes := make([]sim.Node, n)
				for i := 0; i < n; i++ {
					if i == 1 || i == 4 {
						nodes[i] = core.NewByzAttacker(cfg, i, core.BehaviorSplitWorld)
						continue
					}
					nodes[i] = core.NewByzNode(cfg, i)
				}
				return sim.NewNetwork(nodes, sim.WithByzantine([]int{1, 4}))
			}
			// Discover the run length once, so the measured loop can swap in
			// a fresh network before the protocol terminates (a halted
			// network would make StepRound trivially cheap).
			probe := build()
			if err := probe.Run(1 << 20); err != nil {
				b.Fatal(err)
			}
			total := probe.Round()
			probe.Close()
			if total < 16 {
				b.Fatalf("run too short to benchmark: %d rounds", total)
			}
			const warm = 8 // past election/aggregation, into the committee loop
			nw := build()
			for r := 0; r < warm; r++ {
				nw.StepRound()
			}
			msgs0, rounds0 := nw.Metrics().Messages, nw.Round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if nw.Round() >= total-1 {
					b.StopTimer()
					nw.Close()
					nw = build()
					for r := 0; r < warm; r++ {
						nw.StepRound()
					}
					msgs0, rounds0 = nw.Metrics().Messages, nw.Round()
					b.StartTimer()
				}
				nw.StepRound()
			}
			b.StopTimer()
			if rounds := nw.Round() - rounds0; rounds > 0 {
				b.ReportMetric(float64(nw.Metrics().Messages-msgs0)/float64(rounds), "msgs/round")
			}
			nw.Close()
		})
	}
}

// BenchmarkByzWholeRun measures whole Byzantine executions — set-up
// through termination — in the shape of the byz-split workload: n =
// 4096, N = 8n random identities, PoolProb 16/n and two split-world
// attackers at AdversaryLinks(n, 2). Each op is one RunByzantine over
// the next seed of a fixed list of eight; rounds/op reports the mix of
// committee-loop lengths the timed ops covered.
func BenchmarkByzWholeRun(b *testing.B) {
	const n = 4096
	links, err := renaming.AdversaryLinks(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	behaviors := make(map[int]renaming.Behavior, len(links))
	for _, link := range links {
		behaviors[link] = renaming.BehaviorSplitWorld
	}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	specs := make([]renaming.ByzSpec, len(seeds))
	for k, seed := range seeds {
		ids, err := renaming.GenerateIDs(n, 8*n, renaming.IDsRandom, seed)
		if err != nil {
			b.Fatal(err)
		}
		specs[k] = renaming.ByzSpec{N: 8 * n, IDs: ids, Seed: seed, PoolProb: 16.0 / n, Byzantine: behaviors}
	}
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := renaming.RunByzantine(n, specs[i%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		if !res.Unique {
			b.Fatal("run did not produce unique names")
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
