package renaming_test

import (
	"fmt"
	"testing"

	"renaming"
	"renaming/internal/core"
	"renaming/internal/sim"
)

// BenchmarkCrashStepRound measures the steady-state per-round cost of
// the crash-resilient algorithm's hot path — the three-round committee
// schedule (notify broadcast, status fan-in, committee halving) with a
// Θ(log n) committee serving all n nodes — at the scales the
// Theorem 1.2 sweeps run at. Allocations should stay O(committee): the
// idle majority is elided by schedule quiescence, statuses and
// responses travel in reused payload boxes, and the committee's rank
// computation reuses grouped scratch. The CI bench-smoke job runs this
// at -benchtime 1x to catch crash-path performance regressions.
func BenchmarkCrashStepRound(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ids, err := renaming.GenerateIDs(n, 16*n, renaming.IDsEven, int64(n))
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.CrashConfig{N: 16 * n, IDs: ids, Seed: int64(n), CommitteeScale: 0.02}
			if err := cfg.Validate(); err != nil {
				b.Fatal(err)
			}
			build := func() *sim.Network {
				nodes := make([]sim.Node, n)
				for i := 0; i < n; i++ {
					nodes[i] = core.NewCrashNode(cfg, i)
				}
				return sim.NewNetwork(nodes)
			}
			// Discover the run length once, so the measured loop can swap in
			// a fresh network before the protocol terminates (a halted
			// network would make StepRound trivially cheap).
			probe := build()
			if err := probe.Run(cfg.TotalRounds() + 1); err != nil {
				b.Fatal(err)
			}
			total := probe.Round()
			probe.Close()
			if total < 16 {
				b.Fatalf("run too short to benchmark: %d rounds", total)
			}
			const warm = 6 // two full phases in: committees formed, halving under way
			nw := build()
			for r := 0; r < warm; r++ {
				nw.StepRound()
			}
			msgs0, rounds0 := nw.Metrics().Messages, nw.Round()
			var timedMsgs int64 // billed messages across all timed rounds
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if nw.Round() >= total-1 {
					b.StopTimer()
					timedMsgs += nw.Metrics().Messages - msgs0
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
			timedMsgs += nw.Metrics().Messages - msgs0
			if rounds := nw.Round() - rounds0; rounds > 0 {
				b.ReportMetric(float64(nw.Metrics().Messages-msgs0)/float64(rounds), "msgs/round")
			}
			if timedMsgs > 0 {
				// Per-billed-message engine cost: the figure the shared
				// ToSet/aggregation path drives below the per-message
				// store-and-copy floor (billing is decoupled from packing).
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(timedMsgs), "ns/msg")
			}
			nw.Close()
		})
	}
}

// BenchmarkCrashSetup measures the set-up layer of a whole crash run at
// the crash-killer scale, n = 16384: n NewCrashNode calls, each making
// the node's activation draw (Figure 1 line 2) from its LazyRand stream.
func BenchmarkCrashSetup(b *testing.B) {
	const n = 16384
	ids, err := renaming.GenerateIDs(n, 16*n, renaming.IDsEven, n)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.CrashConfig{N: 16 * n, IDs: ids, Seed: n, CommitteeScale: 0.02}
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	nodes := make([]*core.CrashNode, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range nodes {
			nodes[j] = core.NewCrashNode(cfg, j)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
}
