package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"renaming"
	"renaming/internal/adversary"
	"renaming/internal/consensus"
	"renaming/internal/core"
	"renaming/internal/sim"
	"renaming/internal/trace"
)

// The traced one-shot runs drive the same public steps renaming.RunCrash
// and renaming.RunByzantine take — node constructors, sim.NewNetwork with
// identical options, a StepRound loop — with timed wrappers spliced in
// at each layer boundary, and assemble the same Result. The wrapper
// fidelity test pins Result equality against the library entry points,
// and every traced benchmark run compares its digest with an untraced
// run of the same seeds.

var errUnsupported = errors.New("traced run: spec field not supported")

// tracedCrash is renaming.RunCrash over n nodes, traced into l.
func tracedCrash(n int, spec renaming.CrashSpec, l *ledger) (*renaming.Result, error) {
	if spec.N == 0 || spec.IDs == nil || spec.Trace != nil || spec.CongestLimit > 0 ||
		spec.EngineWorkers > 0 || spec.EagerMulticast {
		return nil, errUnsupported
	}
	if len(spec.IDs) != n {
		return nil, fmt.Errorf("renaming: %d ids for %d nodes", len(spec.IDs), n)
	}
	adv, err := crashAdversary(spec.Fault, spec.Seed)
	if err != nil {
		return nil, err
	}
	start := l.now()
	alloc0 := readRuntime().vals[mAllocBytes]
	cfg := core.CrashConfig{
		N: spec.N, IDs: spec.IDs, Seed: spec.Seed,
		CommitteeScale:            spec.CommitteeScale,
		DisableReelectionDoubling: spec.DisableReelectionDoubling,
		EarlyStop:                 spec.EarlyStop,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := make([]*core.CrashNode, n)
	for i := range nodes {
		nodes[i] = core.NewCrashNode(cfg, i)
	}
	l.buildNs += l.now() - start
	l.buildAlloc += int64(readRuntime().vals[mAllocBytes] - alloc0)

	simNodes := make([]sim.Node, n)
	for i, node := range nodes {
		simNodes[i] = l.wrapNode(node)
	}
	opts := []sim.Option{
		sim.WithCrashAdversary(l.wrapAdversary(adv)),
		sim.WithPeek(func(i int) any { return nodes[i].Peek() }),
	}
	var recorder *trace.Recorder
	if spec.Profile {
		recorder = trace.NewStreamingRecorder()
		opts = append(opts, sim.WithRoundDigest(l.wrapDigest(recorder.ObserveDigest)))
	}
	nw := l.acquire(simNodes, opts)
	if err := l.run(nw, simNodes, cfg.TotalRounds()+1); err != nil {
		l.release(nw)
		return nil, fmt.Errorf("crash renaming: %w", err)
	}

	res := &renaming.Result{
		NewIDByLink: make([]int, n),
		Crashes:     nw.Crashes(),
	}
	for i := 0; i < n; i++ {
		res.NewIDByLink[i] = -1
		if nodes[i].EverElected() {
			res.CommitteeSize++
		}
		if !nw.Alive(i) {
			continue
		}
		if id, ok := nodes[i].Output(); ok {
			res.NewIDByLink[i] = id
		}
	}
	fillMetrics(res, nw)
	if recorder != nil {
		res.RoundStats = roundStats(recorder)
	}
	fillVerdicts(res, spec.IDs)
	res.AssumptionHolds = nw.AliveCount() > 0
	for i := 0; i < n; i++ {
		if nw.Alive(i) && res.NewIDByLink[i] < 0 {
			res.Unique = false
		}
	}
	l.release(nw)
	return res, nil
}

// crashAdversary builds the adversary renaming.FaultSpec selects, for the
// kinds the benchmark uses.
func crashAdversary(spec renaming.FaultSpec, seed int64) (sim.CrashAdversary, error) {
	if spec.Custom != nil {
		return spec.Custom, nil
	}
	switch spec.Kind {
	case 0, renaming.FaultNone:
		return sim.NoCrashes{}, nil
	case renaming.FaultCommitteeKiller:
		return &adversary.CommitteeKiller{
			Budget: spec.Budget, Interval: spec.Interval, MidSend: spec.MidSend,
			Rand: rand.New(rand.NewSource(sim.DeriveSeed(seed, 0x657665))), // "eve"
		}, nil
	}
	return nil, errUnsupported
}

// tracedByzantine is renaming.RunByzantine over n nodes, traced into l.
func tracedByzantine(n int, spec renaming.ByzSpec, l *ledger) (*renaming.Result, error) {
	if spec.N == 0 || spec.IDs == nil || spec.Sortition || spec.Fault.Kind != 0 ||
		spec.Fault.Custom != nil || spec.Trace != nil || spec.CongestLimit > 0 || spec.EngineWorkers > 0 {
		return nil, errUnsupported
	}
	if len(spec.IDs) != n {
		return nil, fmt.Errorf("renaming: %d ids for %d nodes", len(spec.IDs), n)
	}
	start := l.now()
	alloc0 := readRuntime().vals[mAllocBytes]
	cfg := core.ByzConfig{
		N: spec.N, IDs: spec.IDs, Seed: spec.Seed,
		Epsilon: spec.Epsilon, PoolProb: spec.PoolProb,
		SplitAlways: spec.SplitAlways,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(spec.Byzantine) > cfg.MaxByzantine() {
		return nil, fmt.Errorf("renaming: %d Byzantine nodes exceed the bound %d = (1/3−ε₀)·n",
			len(spec.Byzantine), cfg.MaxByzantine())
	}
	cfg = cfg.Precompute()
	honest := make(map[int]*core.ByzNode, n)
	raw := make([]sim.Node, n)
	var byzLinks, rushLinks []int
	for i := 0; i < n; i++ {
		if behavior, bad := spec.Byzantine[i]; bad {
			raw[i] = core.NewByzAttacker(cfg, i, coreBehavior(behavior))
			byzLinks = append(byzLinks, i)
			if behavior == renaming.BehaviorRushingEquivocate {
				rushLinks = append(rushLinks, i)
			}
			continue
		}
		node := core.NewByzNode(cfg, i)
		honest[i] = node
		raw[i] = node
	}
	l.buildNs += l.now() - start
	l.buildAlloc += int64(readRuntime().vals[mAllocBytes] - alloc0)

	simNodes := make([]sim.Node, n)
	for i, node := range raw {
		simNodes[i] = l.wrapNode(node)
	}
	opts := []sim.Option{sim.WithByzantine(byzLinks)}
	if len(rushLinks) > 0 {
		opts = append(opts, sim.WithRushing(rushLinks))
	}
	var recorder *trace.Recorder
	if spec.Profile {
		recorder = trace.NewStreamingRecorder()
		opts = append(opts, sim.WithRoundDigest(l.wrapDigest(recorder.ObserveDigest)))
	}
	nw := l.acquire(simNodes, opts)
	if err := l.run(nw, simNodes, byzRoundBudget(cfg, len(byzLinks))); err != nil {
		l.release(nw)
		return nil, fmt.Errorf("byzantine renaming: %w", err)
	}

	res := &renaming.Result{
		NewIDByLink: make([]int, n),
		Byzantine:   len(byzLinks),
		Crashes:     nw.Crashes(),
	}
	if recorder != nil {
		res.RoundStats = roundStats(recorder)
	}
	byzInCommittee := 0
	for i := 0; i < n; i++ {
		res.NewIDByLink[i] = -1
		node, ok := honest[i]
		if !ok {
			continue
		}
		if id, decided := node.Output(); decided {
			res.NewIDByLink[i] = id
		}
		if node.Iterations() > res.Iterations {
			res.Iterations = node.Iterations()
		}
		if res.CommitteeSize == 0 && node.CommitteeSize() > 0 {
			res.CommitteeSize = node.CommitteeSize()
			byzInCommittee = node.ByzantineInCommittee(func(link int) bool {
				_, bad := spec.Byzantine[link]
				return bad || !nw.Alive(link)
			})
		}
	}
	res.AssumptionHolds = res.CommitteeSize > 0 && 3*byzInCommittee < res.CommitteeSize
	fillMetrics(res, nw)
	fillVerdicts(res, spec.IDs)
	for i := 0; i < n; i++ {
		if _, bad := spec.Byzantine[i]; !bad && nw.Alive(i) && res.NewIDByLink[i] < 0 {
			res.Unique = false
		}
	}
	l.release(nw)
	return res, nil
}

func coreBehavior(b renaming.Behavior) core.ByzBehavior {
	switch b {
	case renaming.BehaviorSplitWorld:
		return core.BehaviorSplitWorld
	case renaming.BehaviorEquivocate:
		return core.BehaviorEquivocate
	case renaming.BehaviorSpam:
		return core.BehaviorSpam
	case renaming.BehaviorMinoritySplit:
		return core.BehaviorMinoritySplit
	case renaming.BehaviorRushingEquivocate:
		return core.BehaviorRushingEquivocate
	default:
		return core.BehaviorSilent
	}
}

// byzRoundBudget is RunByzantine's round ceiling: at most
// 4·(f+1)·(⌈log₂ N⌉+1)+8 iterations (Lemma 3.10), each dominated by two
// phase-king executions over the committee.
func byzRoundBudget(cfg core.ByzConfig, byzCount int) int {
	n := len(cfg.IDs)
	perIter := consensus.ValidatorRounds + 2*consensus.RoundsFor(n) + consensus.ExchangeRounds + 2
	iters := 4*(byzCount+1)*(log2Ceil(cfg.N)+1) + 8
	if cfg.SplitAlways {
		iters = 2*cfg.N + 8
	}
	return 3 + 2*perIter*iters
}

func log2Ceil(n int) int {
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// acquire times the network constructor.
func (l *ledger) acquire(nodes []sim.Node, opts []sim.Option) *sim.Network {
	t0 := l.now()
	nw := sim.NewNetwork(nodes, opts...)
	l.acquireNs += l.now() - t0
	return nw
}

// release times the network's Close and folds the run's node counters.
func (l *ledger) release(nw *sim.Network) {
	t0 := l.now()
	nw.Close()
	l.releaseNs += l.now() - t0
	l.msgs += nw.Metrics().Messages
	l.rounds += int64(nw.Round())
	l.collect()
}

// run is sim.Network.Run with each StepRound and each all-halted scan
// timed: rounds execute until every alive node has halted, or the
// budget runs out.
func (l *ledger) run(nw *sim.Network, nodes []sim.Node, maxRounds int) error {
	for {
		t0 := l.now()
		halted := true
		for i, node := range nodes {
			if nw.Alive(i) && !node.Halted() {
				halted = false
				break
			}
		}
		t1 := l.now()
		l.haltNs += t1 - t0
		if halted {
			return nil
		}
		if nw.Round() >= maxRounds {
			return sim.ErrRoundLimit
		}
		nw.StepRound()
		l.roundNs += l.now() - t1
	}
}

// fillMetrics copies the network's communication metrics into res.
func fillMetrics(res *renaming.Result, nw *sim.Network) {
	m := nw.Metrics()
	res.Rounds = m.Rounds
	res.Messages = m.Messages
	res.Bits = m.Bits
	res.HonestMessages = m.HonestMessages
	res.HonestBits = m.HonestBits
	res.MaxMessageBits = m.MaxMessageBits
	res.MaxNodeSent = m.MaxNodeSent()
	res.MaxNodeReceived = m.MaxNodeReceived()
	res.OversizeMessages = m.OversizeMessages
	res.PerKind = make(map[string]int64, len(m.PerKind))
	for k, v := range m.PerKind {
		res.PerKind[k] = v
	}
}

// fillVerdicts computes Unique and OrderPreserving from the decided
// identities, as the library does.
func fillVerdicts(res *renaming.Result, ids []int) {
	n := len(ids)
	res.Unique = true
	res.OrderPreserving = true
	type pair struct{ oldID, newID int }
	var pairs []pair
	seen := make(map[int]bool)
	for link, newID := range res.NewIDByLink {
		if newID < 0 {
			continue
		}
		if newID < 1 || newID > n || seen[newID] {
			res.Unique = false
		}
		seen[newID] = true
		pairs = append(pairs, pair{oldID: ids[link], newID: newID})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].oldID < pairs[b].oldID })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].newID <= pairs[i-1].newID {
			res.OrderPreserving = false
		}
	}
}

func roundStats(rec *trace.Recorder) *renaming.RoundStats {
	s := rec.Summary()
	return &renaming.RoundStats{
		Rounds:          s.Rounds,
		BusiestRound:    s.BusiestRound,
		BusiestMessages: s.BusiestMessages,
		PeakBits:        s.PeakBits,
		MeanMessages:    s.MeanMessages,
		StddevMessages:  s.StddevMessages,
	}
}
