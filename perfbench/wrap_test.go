package main

import (
	"reflect"
	"testing"

	"renaming"
	"renaming/internal/core"
	"renaming/internal/service"
	"renaming/internal/sim"
)

type plainNode struct{}

func (plainNode) Step(int, []sim.Message) sim.Outbox { return nil }
func (plainNode) Output() (int, bool)                { return 0, false }
func (plainNode) Halted() bool                       { return true }

type isQuiet struct{}

func (isQuiet) Quiescent() bool { return true }

type isQuietAt struct{}

func (isQuietAt) QuiescentAt(round int) bool { return round%2 == 0 }

type isSetUser struct{}

func (isSetUser) UseSets(*sim.Sets) {}

type optionalSet struct{ quiet, quietAt, setUser bool }

func optionalOf(n sim.Node) optionalSet {
	_, q := n.(sim.Quiescent)
	_, qa := n.(sim.ScheduleQuiescent)
	_, su := n.(sim.SetUser)
	return optionalSet{q, qa, su}
}

// TestWrapNodeOptionalInterfaces pins that a wrapper implements exactly
// the optional interfaces its node does, for every combination and for
// the repository's node types, and forwards the polls it counts.
func TestWrapNodeOptionalInterfaces(t *testing.T) {
	cfg := core.CrashConfig{N: 64, IDs: []int{1, 2, 3, 4}, Seed: 1}
	bcfg := core.ByzConfig{N: 64, IDs: []int{1, 2, 3, 4}, Seed: 1}.Precompute()
	nodes := []sim.Node{
		plainNode{},
		struct {
			plainNode
			isQuiet
		}{},
		struct {
			plainNode
			isQuietAt
		}{},
		struct {
			plainNode
			isSetUser
		}{},
		struct {
			plainNode
			isQuiet
			isQuietAt
		}{},
		struct {
			plainNode
			isQuiet
			isSetUser
		}{},
		struct {
			plainNode
			isQuietAt
			isSetUser
		}{},
		struct {
			plainNode
			isQuiet
			isQuietAt
			isSetUser
		}{},
		core.NewCrashNode(cfg, 0),
		core.NewByzNode(bcfg, 0),
		core.NewByzAttacker(bcfg, 1, core.BehaviorSplitWorld),
	}
	for i, n := range nodes {
		l := newLedger()
		w := l.wrapNode(n)
		if got, want := optionalOf(w), optionalOf(n); got != want {
			t.Errorf("node %d (%T): wrapper implements %+v, node %+v", i, n, got, want)
		}
		if q, ok := n.(sim.Quiescent); ok && w.(sim.Quiescent).Quiescent() != q.Quiescent() {
			t.Errorf("node %d: Quiescent not forwarded", i)
		}
		if q, ok := n.(sim.ScheduleQuiescent); ok {
			for r := 0; r < 3; r++ {
				if w.(sim.ScheduleQuiescent).QuiescentAt(r) != q.QuiescentAt(r) {
					t.Errorf("node %d: QuiescentAt(%d) not forwarded", i, r)
				}
			}
		}
		l.collect()
		opt := optionalOf(n)
		wantPolls := int64(0)
		if opt.quiet {
			wantPolls++
		}
		if opt.quietAt {
			wantPolls += 3
		}
		if l.polls != wantPolls {
			t.Errorf("node %d: counted %d polls, want %d", i, l.polls, wantPolls)
		}
	}
}

// TestTracedCrashMatchesLibrary runs the crash-killer shape at small n
// through the traced replica and through renaming.RunCrash.
func TestTracedCrashMatchesLibrary(t *testing.T) {
	const n = 256
	for seed := int64(1); seed <= 4; seed++ {
		ids, err := renaming.GenerateIDs(n, 16*n, renaming.IDsRandom, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := renaming.CrashSpec{
			N: 16 * n, IDs: ids, Seed: seed, CommitteeScale: 0.05,
			Fault:   renaming.FaultSpec{Kind: renaming.FaultCommitteeKiller, Budget: 16, MidSend: true},
			Profile: true,
		}
		want, err := renaming.RunCrash(n, spec)
		if err != nil {
			t.Fatal(err)
		}
		l := newLedger()
		got, err := tracedCrash(n, spec, l)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: traced result differs:\n got %+v\nwant %+v", seed, got, want)
		}
		if l.steps == 0 || l.polls == 0 || l.midsend == 0 || l.filterEvals == 0 || l.digests != int64(want.Rounds) {
			t.Errorf("seed %d: ledger missed a layer: steps %d polls %d midsend %d evals %d digests %d",
				seed, l.steps, l.polls, l.midsend, l.filterEvals, l.digests)
		}
	}
}

// TestTracedByzantineMatchesLibrary runs the byz-split shape at small n
// through the traced replica and through renaming.RunByzantine.
func TestTracedByzantineMatchesLibrary(t *testing.T) {
	const n = 128
	links, err := renaming.AdversaryLinks(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		ids, err := renaming.GenerateIDs(n, 8*n, renaming.IDsRandom, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := byzSpec(seed, ids, links)
		spec.PoolProb = 16.0 / n
		want, err := renaming.RunByzantine(n, spec)
		if err != nil {
			t.Fatal(err)
		}
		l := newLedger()
		got, err := tracedByzantine(n, spec, l)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: traced result differs:\n got %+v\nwant %+v", seed, got, want)
		}
		if l.steps == 0 || l.polls == 0 {
			t.Errorf("seed %d: ledger saw %d steps and %d polls", seed, l.steps, l.polls)
		}
	}
}

// TestHookedServiceMatchesPlain drives the churn shape at small capacity
// with and without the FaultForEpoch hook that returns the wrapped no-op
// adversary; every epoch result must be identical.
func TestHookedServiceMatchesPlain(t *testing.T) {
	const capacity = 1024
	l := newLedger()
	plainCfg := service.Config{Capacity: capacity, BigN: 16 * capacity, Seed: 5}
	hookedCfg := plainCfg
	hookedCfg.FaultForEpoch = func(epoch, batch int) renaming.FaultSpec {
		return renaming.FaultSpec{Custom: l.wrapAdversary(sim.NoCrashes{})}
	}
	plain, err := service.New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	hooked, err := service.New(hookedCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer hooked.Close()
	driver, err := service.NewTraceDriver(service.TraceSpec{Capacity: capacity, JoinMax: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for e := 0; e < 40; e++ {
		joins, leaves, err := driver.NextEpoch(plain.LiveClients())
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.RunEpoch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		l.advCalls = 0
		got, err := hooked.RunEpoch(joins, leaves)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: hooked result differs:\n got %+v\nwant %+v", e, got, want)
		}
		if l.advCalls != want.Rounds {
			t.Fatalf("epoch %d: %d adversary calls for %d rounds", e, l.advCalls, want.Rounds)
		}
		rounds += want.Rounds
	}
	if rounds == 0 {
		t.Fatal("no epoch ran a round")
	}
}
