package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"renaming"
	"renaming/internal/campaign"
	"renaming/internal/core"
	"renaming/internal/sim"
	"renaming/internal/stats"
)

// oneCase is one seed of a one-shot workload's fixed seed list: the
// generated inputs, the library call the untraced run measures, and its
// traced replica.
type oneCase struct {
	seed   int64
	n      int
	run    func() (*renaming.Result, error)
	traced func(l *ledger) (*renaming.Result, error)
	oracle func(res *renaming.Result) []string
}

// The crash-killer workload: the ROADMAP's reference whole run.
//
// Its run cost is set by s, the size of the committee that survives once
// the killer has spent its budget: messages grow about linearly in s.
// If the initial committee c₀ fits in the budget the killer wipes it,
// every survivor re-elects with doubled probability, and s = c₀ + c₁ −
// budget lands near 140 instead of c₀ − budget ≈ 1–30, for ~4× the run
// time. A seed list drawn freely swings with how many such seeds it
// happens to get, and with where in each regime they fall, so the list
// is stratified on s.
const (
	crashN         = 16384
	crashScale     = 0.02
	killerBudget   = 64
	crashStrata    = 10
	crashPerStrata = 1
)

func crashSpec(seed int64, ids []int) renaming.CrashSpec {
	return renaming.CrashSpec{
		N: 16 * crashN, IDs: ids, Seed: seed,
		CommitteeScale: crashScale,
		Fault:          renaming.FaultSpec{Kind: renaming.FaultCommitteeKiller, Budget: killerBudget, MidSend: true},
		Profile:        true,
	}
}

// survivorMass returns the distribution of s, indexed by s + n, from
// the paper's election rule (Figure 1 line 2, Figure 3 lines 1–3): c₀ ~
// Binomial(n, p(0)), and after a wipe the n − c₀ survivors re-elect
// with p(1), where p(k) = min(1, 256·2^k·⌈log₂ n⌉·scale/n).
func survivorMass() []float64 {
	n, budget := crashN, killerBudget
	p := func(k int) float64 {
		return math.Min(1, 256*float64(int(1)<<k)*float64(log2Ceil(n))*crashScale/float64(n))
	}
	mass := make([]float64, 2*n+1)
	for c0, q0 := range binomialPMF(n, p(0)) {
		if q0 < 1e-16 {
			continue
		}
		if c0 > budget {
			mass[c0-budget+n] += q0
			continue
		}
		for c1, q1 := range binomialPMF(n-c0, p(1)) {
			mass[c0+c1-budget+n] += q0 * q1
		}
	}
	return mass
}

// crashKillerCases draws candidate seeds in order, sets each one up as
// RunCrash would (one set-up sample per candidate), measures its s, and
// keeps the candidates the stratifier takes. It returns the seed list
// in candidate order and the set-up samples in seconds.
func crashKillerCases(seed int64, out *report) ([]oneCase, []float64, error) {
	strata := newStratifier(survivorMass(), crashN, crashStrata, crashPerStrata)
	var cases []oneCase
	var setups []float64
	var chosen []int
	for i := 0; !strata.full() && i < maxCandidates; i++ {
		s := runSeed(seed, labelCrash, i)
		ids, err := renaming.GenerateIDs(crashN, 16*crashN, renaming.IDsRandom, s)
		if err != nil {
			return nil, nil, err
		}
		spec := crashSpec(s, ids)
		survivors, secs, err := crashSetup(spec)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
		if strata.take(survivors) {
			cases = append(cases, crashCase(s, ids, spec))
			chosen = append(chosen, survivors)
		}
	}
	if !strata.full() {
		return nil, nil, fmt.Errorf("seed list: strata of s %v still open after %d candidates", strata.windows, maxCandidates)
	}
	out.note("seed list: surviving committee s = %v (windows %v) from %d candidates", chosen, strata.windows, len(setups))
	return cases, setups, nil
}

// crashSetup times a run's set-up as RunCrash performs it — config
// validation, n node constructors, the network over them — and returns
// s: the initial committee minus the budget, or, when the budget covers
// the initial committee, the committee after the wipe's re-election
// minus the budget, read after the first phase (four rounds) runs.
func crashSetup(spec renaming.CrashSpec) (int, float64, error) {
	adv, err := crashAdversary(spec.Fault, spec.Seed)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	start := time.Now()
	cfg := core.CrashConfig{N: spec.N, IDs: spec.IDs, Seed: spec.Seed, CommitteeScale: spec.CommitteeScale}
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	nodes := make([]*core.CrashNode, len(spec.IDs))
	simNodes := make([]sim.Node, len(spec.IDs))
	for i := range nodes {
		nodes[i] = core.NewCrashNode(cfg, i)
		simNodes[i] = nodes[i]
	}
	nw := sim.NewNetwork(simNodes,
		sim.WithCrashAdversary(adv),
		sim.WithPeek(func(i int) any { return nodes[i].Peek() }))
	secs := time.Since(start).Seconds()
	defer nw.Close()
	elected := func() int {
		k := 0
		for _, node := range nodes {
			if node.EverElected() {
				k++
			}
		}
		return k
	}
	if c0 := elected(); c0 > spec.Fault.Budget {
		return c0 - spec.Fault.Budget, secs, nil
	}
	for r := 0; r < 4; r++ {
		nw.StepRound()
	}
	return elected() - spec.Fault.Budget, secs, nil
}

func crashCase(seed int64, ids []int, spec renaming.CrashSpec) oneCase {
	oracle := campaign.Oracle{Expect: campaign.CrashExpectation(crashN)}
	return oneCase{
		seed: seed, n: crashN,
		run:    func() (*renaming.Result, error) { return renaming.RunCrash(crashN, spec) },
		traced: func(l *ledger) (*renaming.Result, error) { return tracedCrash(crashN, spec, l) },
		oracle: func(res *renaming.Result) []string {
			problems := violations(oracle.Check(crashN, ids, res))
			if res.Crashes > killerBudget {
				problems = append(problems, fmt.Sprintf("%d crashes exceed the budget %d", res.Crashes, killerBudget))
			}
			return problems
		},
	}
}

// The byz-split workload: protocol- and poll-bound Byzantine runs. Run
// cost grows with the committee, whose size k = |pool ∩ IDs| is
// Binomial(n, PoolProb) (each identity of [N] joins the shared pool
// independently), from 8 to 24 at these parameters: the seed list is
// stratified on k.
const (
	byzN         = 4096
	byzF         = 2
	byzStrata    = 12
	byzPerStrata = 4
)

func byzSpec(seed int64, ids []int, links []int) renaming.ByzSpec {
	byz := make(map[int]renaming.Behavior, len(links))
	for _, link := range links {
		byz[link] = renaming.BehaviorSplitWorld
	}
	return renaming.ByzSpec{
		N: 8 * byzN, IDs: ids, Seed: seed,
		PoolProb:  16.0 / byzN,
		Byzantine: byz,
	}
}

func byzSplitCases(seed int64, out *report) ([]oneCase, []float64, error) {
	links, err := renaming.AdversaryLinks(byzN, byzF)
	if err != nil {
		return nil, nil, err
	}
	oracle := campaign.Oracle{Expect: campaign.ByzantineExpectation(8*byzN, byzF)}
	strata := newStratifier(binomialPMF(byzN, 16.0/byzN), 0, byzStrata, byzPerStrata)
	var cases []oneCase
	var setups []float64
	var chosen []int
	candidates := 0
	for ; !strata.full() && candidates < maxCandidates; candidates++ {
		s := runSeed(seed, labelByz, candidates)
		ids, err := renaming.GenerateIDs(byzN, 8*byzN, renaming.IDsRandom, s)
		if err != nil {
			return nil, nil, err
		}
		spec := byzSpec(s, ids, links)
		k := poolMembers(spec)
		if !strata.take(k) {
			continue
		}
		secs, err := byzSetup(spec)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
		chosen = append(chosen, k)
		cases = append(cases, oneCase{
			seed: s, n: byzN,
			run:    func() (*renaming.Result, error) { return renaming.RunByzantine(byzN, spec) },
			traced: func(l *ledger) (*renaming.Result, error) { return tracedByzantine(byzN, spec, l) },
			oracle: func(res *renaming.Result) []string {
				problems := violations(oracle.Check(byzN, ids, res))
				if !res.OrderPreserving {
					problems = append(problems, "result not order-preserving")
				}
				if !res.AssumptionHolds {
					problems = append(problems, "committee assumption broken")
				}
				return problems
			},
		})
	}
	if !strata.full() {
		return nil, nil, fmt.Errorf("seed list: strata of k %v still open after %d candidates", strata.windows, maxCandidates)
	}
	out.note("seed list: pool members k = %v (windows %v) from %d candidates", chosen, strata.windows, candidates)
	return cases, setups, nil
}

// poolMembers counts the identities in the run's shared candidate pool.
func poolMembers(spec renaming.ByzSpec) int {
	cfg := core.ByzConfig{N: spec.N, IDs: spec.IDs, Seed: spec.Seed, PoolProb: spec.PoolProb}
	inPool := make(map[int]bool)
	for _, id := range cfg.Pool() {
		inPool[id] = true
	}
	k := 0
	for _, id := range spec.IDs {
		if inPool[id] {
			k++
		}
	}
	return k
}

// byzSetup times a Byzantine run's set-up as RunByzantine performs it:
// validation, the shared pool precompute, n constructors and the
// network.
func byzSetup(spec renaming.ByzSpec) (float64, error) {
	runtime.GC()
	start := time.Now()
	cfg := core.ByzConfig{N: spec.N, IDs: spec.IDs, Seed: spec.Seed, PoolProb: spec.PoolProb}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	cfg = cfg.Precompute()
	nodes := make([]sim.Node, len(spec.IDs))
	var byzLinks []int
	for i := range nodes {
		if b, bad := spec.Byzantine[i]; bad {
			nodes[i] = core.NewByzAttacker(cfg, i, coreBehavior(b))
			byzLinks = append(byzLinks, i)
			continue
		}
		nodes[i] = core.NewByzNode(cfg, i)
	}
	nw := sim.NewNetwork(nodes, sim.WithByzantine(byzLinks))
	nw.Close()
	return time.Since(start).Seconds(), nil
}

func violations(vs []campaign.Violation) []string {
	out := make([]string, 0, len(vs))
	for _, v := range vs {
		out = append(out, v.Invariant+": "+v.Detail)
	}
	return out
}

// decided counts the links that decided a name.
func decided(res *renaming.Result) int64 {
	var k int64
	for _, id := range res.NewIDByLink {
		if id >= 0 {
			k++
		}
	}
	return k
}

func runCrashKiller(p params, out *report) error {
	cases, setups, err := crashKillerCases(p.seed, out)
	if err != nil {
		return err
	}
	return runOneShot(p, out, cases, setups)
}

func runByzSplit(p params, out *report) error {
	cases, setups, err := byzSplitCases(p.seed, out)
	if err != nil {
		return err
	}
	return runOneShot(p, out, cases, setups)
}

// oneShotTail is the latency percentile the one-shot workloads report:
// a list of a few dozen runs has no sample beyond a p99.
const oneShotTail = 0.90

// runOneShot executes whole passes over the fixed seed list, as many as
// fit the measurement time to the nearest pass (at least one).
// Untraced, every run is measured; traced, every seed runs untraced and
// then traced, so the digests can be compared and the tracing overhead
// measured pairwise.
func runOneShot(p params, out *report, cases []oneCase, setups []float64) error {
	out.listLen = len(cases)
	var untraced opTotals
	var l *ledger
	if p.trace {
		l = newLedger()
	} else {
		untraced.heap = startHeapSampler()
		defer untraced.heap.close()
	}
	var work simWork
	start := time.Now()
	var passTime time.Duration
	for pass := 0; pass == 0 || time.Since(start)+passTime/2 < p.seconds; pass++ {
		passStart := time.Now()
		plain, traced := newDigester(), newDigester()
		for _, c := range cases {
			op := fmt.Sprintf("seed %d pass %d", c.seed, pass)
			var res *renaming.Result
			// Every run starts from a collected heap, so its GC work does
			// not depend on what the run before it left behind.
			runtime.GC()
			err := untraced.measure(func() (err error) {
				res, err = c.run()
				return err
			})
			if !checkOneShot(out, op, c, res, err) {
				continue
			}
			plain.add(res.Rounds, res.Messages, res.HonestBits, res.NewIDByLink)
			work.add(decided(res), res.Messages, res.HonestBits, int64(c.n), res.Rounds)
			if l == nil {
				continue
			}
			runtime.GC()
			t0 := l.now()
			tres, err := c.traced(l)
			l.wholeNs += l.now() - t0
			l.ops++
			if !checkOneShot(out, op+" traced", c, tres, err) {
				continue
			}
			traced.add(tres.Rounds, tres.Messages, tres.HonestBits, tres.NewIDByLink)
		}
		switch {
		case pass == 0:
			out.digest = plain.String()
		case plain.String() != out.digest:
			out.check(fmt.Sprintf("pass %d", pass), []string{"digest " + plain.String() + " differs from the first pass " + out.digest})
		}
		if l != nil && traced.String() != plain.String() {
			out.check(fmt.Sprintf("pass %d traced", pass), []string{"traced digest " + traced.String() + " differs from untraced " + plain.String()})
		}
		passTime = time.Since(passStart)
	}
	if l != nil {
		oneShotLayers(out, l, &untraced)
		return nil
	}
	endToEnd(out, &untraced, work, stats.Quantile(setups, 0.5), oneShotTail)
	return nil
}

// checkOneShot records one run's verdict and reports whether it
// produced a result to account.
func checkOneShot(out *report, op string, c oneCase, res *renaming.Result, err error) bool {
	if err != nil {
		out.check(op, []string{err.Error()})
		return false
	}
	out.check(op, c.oracle(res))
	return true
}
