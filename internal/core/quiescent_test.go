package core

import (
	"fmt"
	"reflect"
	"testing"

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
