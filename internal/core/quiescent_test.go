package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"renaming/internal/adversary"
	"renaming/internal/sim"
)

// vouchAudit checks the quiescence vouch the engine parks nodes on. It
// wraps a node implementing sim.Quiescent but does not implement it
// itself, so the engine steps it every round and each call can be
// audited. twin is a second node built identically and fed the same
// inboxes, except that it skips the calls node vouched idle for: before
// such a call it equals node, so it is the snapshot node must still
// equal afterwards.
type vouchAudit struct {
	t          *testing.T
	name       string
	node, twin sim.Node
	quiet      bool // node's Quiescent() after its last Step
	idle       int  // audited calls made while vouching idle
}

func newVouchAudit(t *testing.T, name string, build func() sim.Node) *vouchAudit {
	a := &vouchAudit{t: t, name: name, node: build(), twin: build()}
	a.quiet = a.quiescent()
	return a
}

func (a *vouchAudit) quiescent() bool { return a.node.(sim.Quiescent).Quiescent() }

// checkStable fails if Quiescent() moved since node's last Step.
func (a *vouchAudit) checkStable(round int, when string) {
	if q := a.quiescent(); q != a.quiet {
		a.t.Errorf("%s round %d: Quiescent() changed from %v to %v %s", a.name, round, a.quiet, q, when)
		a.quiet = q
	}
}

func (a *vouchAudit) Step(round int, inbox []sim.Message) sim.Outbox {
	a.checkStable(round, "before Step")
	if a.quiet && len(inbox) == 0 {
		a.idle++
		if !reflect.DeepEqual(a.node, a.twin) {
			a.t.Fatalf("%s round %d: twin diverged before a vouched-idle Step", a.name, round)
		}
		if out := a.node.Step(round, nil); len(out) != 0 {
			a.t.Errorf("%s round %d: vouched-idle Step sent %d messages", a.name, round, len(out))
		}
		if !reflect.DeepEqual(a.node, a.twin) {
			a.t.Errorf("%s round %d: vouched-idle Step changed the node's state", a.name, round)
		}
		a.quiet = a.quiescent()
		return nil
	}
	out := a.node.Step(round, inbox)
	a.twin.Step(round, inbox)
	a.quiet = a.quiescent()
	return out
}

func (a *vouchAudit) Output() (int, bool) { return a.node.Output() }
func (a *vouchAudit) Halted() bool        { return a.node.Halted() }

// TestQuiescentVouch audits sim.Quiescent on seeded Byzantine runs, for
// ByzNode and every ByzAttacker behaviour: while Quiescent() is true, a
// Step with an empty inbox returns nil and leaves the node's state
// reflect.DeepEqual to what it was, and Quiescent() never changes
// between Step calls — the engine parks a vouching node on exactly that
// and does not poll it again until it has mail.
func TestQuiescentVouch(t *testing.T) {
	behaviors := []ByzBehavior{
		BehaviorSilent, BehaviorSplitWorld, BehaviorEquivocate,
		BehaviorSpam, BehaviorMinoritySplit, BehaviorRushingEquivocate,
	}
	const n = 24
	for _, behavior := range behaviors {
		for seed := int64(1); seed <= 2; seed++ {
			cfg := byzConfig(n, 8*n, seed, 0.3).Precompute()
			byz := map[int]ByzBehavior{1: behavior, 10: behavior, 19: behavior}
			var byzLinks, rushLinks []int
			audits := make([]*vouchAudit, n)
			nodes := make([]sim.Node, n)
			for i := range nodes {
				name := fmt.Sprintf("behavior %d seed %d node %d", behavior, seed, i)
				build := func() sim.Node { return NewByzNode(cfg, i) }
				if b, bad := byz[i]; bad {
					build = func() sim.Node { return NewByzAttacker(cfg, i, b) }
					byzLinks = append(byzLinks, i)
					if b == BehaviorRushingEquivocate {
						rushLinks = append(rushLinks, i)
					}
				}
				audits[i] = newVouchAudit(t, name, build)
				nodes[i] = audits[i]
			}
			round := 0
			nw := sim.NewNetwork(nodes,
				sim.WithByzantine(byzLinks), sim.WithRushing(rushLinks),
				sim.WithRoundEnd(func() {
					for _, a := range audits {
						a.checkStable(round, "between Step calls")
					}
					round++
				}))
			run := &byzRun{cfg: cfg, byzSet: map[int]bool{1: true, 10: true, 19: true}}
			if err := nw.Run(run.maxRounds()); err != nil {
				t.Fatalf("behavior %d seed %d: %v", behavior, seed, err)
			}
			nw.Close()
			idle := 0
			for _, a := range audits {
				idle += a.idle
			}
			if idle == 0 {
				t.Errorf("behavior %d seed %d: no vouched-idle Step was audited", behavior, seed)
			}
		}
	}
}

// scheduleAudit checks the sim.ScheduleQuiescent vouch of a CrashNode. It
// does not implement ScheduleQuiescent itself, so the engine steps it
// every round and each vouched call can be audited against twin, a
// second node built identically and fed the same inboxes except on the
// rounds node vouched idle for. It hands the engine's set registry to
// both nodes, so the shared multicast and the shared committee plan run
// as in a plain run.
type scheduleAudit struct {
	t          *testing.T
	name       string
	node, twin *CrashNode
	idle       [3]int // audited vouched-idle calls, by round mod 3
}

func (a *scheduleAudit) UseSets(s *sim.Sets) {
	a.node.UseSets(s)
	a.twin.UseSets(s)
}

func (a *scheduleAudit) Step(round int, inbox []sim.Message) sim.Outbox {
	if len(inbox) == 0 && a.node.QuiescentAt(round) {
		a.idle[round%3]++
		if !reflect.DeepEqual(a.node, a.twin) {
			a.t.Fatalf("%s round %d: twin diverged before a vouched-idle Step", a.name, round)
		}
		if out := a.node.Step(round, nil); out != nil {
			a.t.Errorf("%s round %d: vouched-idle Step returned %d messages, want nil", a.name, round, len(out))
		}
		if !reflect.DeepEqual(a.node, a.twin) {
			a.t.Errorf("%s round %d: vouched-idle Step changed the node's state", a.name, round)
		}
		return nil
	}
	out := a.node.Step(round, inbox)
	a.twin.Step(round, inbox)
	return out
}

func (a *scheduleAudit) Output() (int, bool) { return a.node.Output() }
func (a *scheduleAudit) Halted() bool        { return a.node.Halted() }

// TestCrashQuiescentAtVouch audits CrashNode.QuiescentAt on seeded crash
// runs — failure-free, random crashes and the mid-send committee killer,
// with committees of a few members and committees that start empty:
// whenever it vouches for a round and the inbox is empty, Step returns
// nil and leaves the node reflect.DeepEqual to a twin that was never
// stepped in that round. The engine elides exactly those calls.
func TestCrashQuiescentAtVouch(t *testing.T) {
	const n = 64
	advs := map[string]func(seed int64) sim.CrashAdversary{
		"none": func(int64) sim.CrashAdversary { return nil },
		"random": func(seed int64) sim.CrashAdversary {
			return &adversary.RandomCrashes{Budget: n / 2, Prob: 0.05, MidSendProb: 0.5, Rand: rand.New(rand.NewSource(seed))}
		},
		"killer": func(seed int64) sim.CrashAdversary {
			return &adversary.CommitteeKiller{Budget: n / 2, MidSend: true, Rand: rand.New(rand.NewSource(seed))}
		},
	}
	var total [3]int
	for name, adv := range advs {
		// Scale 0.01 elects a few members per phase; at 0.0005 committees
		// are often empty, and so are the round 3k+1 inboxes after them.
		for _, scale := range []float64{0.01, 0.0005} {
			for seed := int64(1); seed <= 2; seed++ {
				run := fmt.Sprintf("%s scale %g seed %d", name, scale, seed)
				cfg := seqConfig(n, 8*n, seed)
				cfg.CommitteeScale = scale
				audits := make([]*scheduleAudit, n)
				nodes := make([]sim.Node, n)
				for i := range nodes {
					audits[i] = &scheduleAudit{t: t, name: fmt.Sprintf("%s node %d", run, i),
						node: NewCrashNode(cfg, i), twin: NewCrashNode(cfg, i)}
					nodes[i] = audits[i]
				}
				opts := []sim.Option{sim.WithPeek(func(i int) any { return audits[i].node.Peek() })}
				if a := adv(seed); a != nil {
					opts = append(opts, sim.WithCrashAdversary(a))
				}
				nw := sim.NewNetwork(nodes, opts...)
				if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				nw.Close()
				var idle [3]int
				for _, a := range audits {
					for k := range idle {
						idle[k] += a.idle[k]
					}
				}
				t.Logf("%s: vouched-idle Steps by round mod 3: %v", run, idle)
				if idle[2] == 0 {
					t.Errorf("%s: no vouched-idle Step was audited in a committee round", run)
				}
				for k := range total {
					total[k] += idle[k]
				}
			}
		}
	}
	if total[1] == 0 {
		t.Errorf("no vouched-idle Step was audited in a send-status round")
	}
}
