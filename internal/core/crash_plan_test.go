package core

import (
	"fmt"
	"math/rand"
	"testing"

	"renaming/internal/adversary"
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// planStatuses returns one packed status box per link of cfg: the lower
// half at the frontier depth 0 with the full interval, the upper half one
// level deeper, so the plan both halves and echoes.
func planStatuses(cfg CrashConfig) []PackedStatus {
	n := len(cfg.IDs)
	codec := newCrashCodec(cfg)
	boxes := make([]PackedStatus, n)
	for i := range boxes {
		st := StatusPayload{ID: cfg.IDs[i], I: interval.Full(n)}
		if i >= n/2 {
			st.I, st.D, st.P = interval.Full(n).Top(), 1, 1
		}
		boxes[i] = codec.encodeStatus(st)
	}
	return boxes
}

// mergedView builds a committee-round inbox over boxes as the engine's
// merge path delivers it to member self: its own backing array, To set
// to self, senders ascending, skipping link drop (-1: none).
func mergedView(boxes []PackedStatus, self, drop int) []sim.Message {
	inbox := make([]sim.Message, 0, len(boxes))
	for i := range boxes {
		if i != drop {
			inbox = append(inbox, sim.Message{From: i, To: self, Payload: &boxes[i]})
		}
	}
	return inbox
}

// sameOutbox fails unless got and want address the same links, from the
// same sender, with responses of identical content.
func sameOutbox(t *testing.T, name string, got, want sim.Outbox) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", name, len(got), len(want))
	}
	for j := range got {
		g, w := got[j], want[j]
		if g.From != w.From || g.To != w.To || *g.Payload.(*PackedResponse) != *w.Payload.(*PackedResponse) {
			t.Fatalf("%s: response %d = %+v, want %+v", name, j, g, w)
		}
	}
}

// TestCommitteePlanKeyedOnContent pins the content-keyed committee plan:
// members whose merged (non-bound) inboxes carry the same statuses share
// the one plan the first member computed, and a member whose content
// differs — a missing status, or an equal status in a different box —
// computes privately. Every member emits exactly what a fully private
// member would.
func TestCommitteePlanKeyedOnContent(t *testing.T) {
	cfg := seqConfig(64, 1024, 7)
	boxes := planStatuses(cfg)
	copied := append([]PackedStatus(nil), boxes...)
	const round = 2
	agg := new(committeeAggregate)
	var first []sim.Message
	for _, c := range []struct {
		name  string
		self  int
		drop  int
		boxes []PackedStatus
		share bool
	}{
		{"first member", 3, -1, boxes, true},
		{"identical merged view", 17, -1, boxes, true},
		{"identical merged view (2)", 40, -1, boxes, true},
		{"missing status", 41, 5, boxes, false},
		{"equal statuses in other boxes", 50, -1, copied, false},
	} {
		node := NewCrashNode(cfg, c.self)
		node.agg = agg
		inbox := mergedView(c.boxes, c.self, c.drop)
		if first == nil {
			first = inbox
		}
		got := node.committeeAction(round, inbox)
		ref := NewCrashNode(cfg, c.self)
		want := ref.committeeAction(round, mergedView(c.boxes, c.self, c.drop))
		sameOutbox(t, c.name, got, want)
		if private := len(node.plan.statuses) > 0; private == c.share {
			t.Errorf("%s: private plan computed = %v, want %v", c.name, private, !c.share)
		}
		if node.p != ref.p {
			t.Errorf("%s: adopted p %d, want %d", c.name, node.p, ref.p)
		}
	}
	if &agg.key[0] != &first[0] {
		t.Error("shared plan was recomputed within the round")
	}
}

// privateCrashNode hides the engine's registry from a CrashNode, so it
// never joins the shared committee aggregate: every member computes its
// plan and encodes its responses privately.
type privateCrashNode struct{ *CrashNode }

func (p privateCrashNode) UseSets(*sim.Sets) { p.CrashNode.UseSets(nil) }

// TestCommitteePlanSharingInvisible runs the crash algorithm under the
// mid-send committee killer — whose partial Notify and status sends give
// members merged views — with the shared plan, under the eager-multicast
// ablation (explicit views, plan still shared), and with every member
// private. Outputs, crash schedules and billing must agree exactly, at
// one and four engine workers. Killing every round leaves surviving
// members content-identical merged views; killing every other round
// leaves some members with divergent content.
func TestCommitteePlanSharingInvisible(t *testing.T) {
	for _, every := range []int{0, 2} {
		t.Run(fmt.Sprintf("interval=%d", every), func(t *testing.T) {
			testPlanSharingInvisible(t, every)
		})
	}
}

func testPlanSharingInvisible(t *testing.T, killInterval int) {
	run := func(mode string, workers int) string {
		cfg := seqConfig(256, 4096, 11)
		cfg.CommitteeScale = 0.05
		n := len(cfg.IDs)
		nodes := make([]*CrashNode, n)
		simNodes := make([]sim.Node, n)
		for i := range nodes {
			nodes[i] = NewCrashNode(cfg, i)
			simNodes[i] = nodes[i]
			if mode == "private" {
				simNodes[i] = privateCrashNode{nodes[i]}
			}
		}
		opts := []sim.Option{
			sim.WithPeek(func(i int) any { return nodes[i].Peek() }),
			sim.WithCrashAdversary(&adversary.CommitteeKiller{Budget: 24, Interval: killInterval, MidSend: true,
				Rand: rand.New(rand.NewSource(3))}),
			sim.WithEngineWorkers(workers),
		}
		if mode == "eager" {
			opts = append(opts, sim.WithEagerMulticast())
		}
		nw := sim.NewNetwork(simNodes, opts...)
		defer nw.Close()
		if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
			t.Fatalf("%s workers=%d: %v", mode, workers, err)
		}
		checkUnique(t, nw, nodes)
		m := nw.Metrics()
		fp := fmt.Sprintf("msgs=%d bits=%d kinds=%v sent=%v recv=%v;", m.Messages, m.Bits, m.PerKind, m.PerNodeSent, m.PerNodeReceived)
		for i, node := range nodes {
			id, ok := node.Output()
			fp += fmt.Sprintf("%d:%d/%v@%d;", i, id, ok, nw.CrashedAt(i))
		}
		return fp
	}
	want := run("private", 1)
	for _, mode := range []string{"shared", "eager", "private"} {
		for _, workers := range []int{1, 4} {
			if got := run(mode, workers); got != want {
				t.Errorf("%s workers=%d: run diverges from the fully private run", mode, workers)
			}
		}
	}
}
