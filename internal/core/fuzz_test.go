package core

import (
	"encoding/binary"
	"testing"

	"renaming/internal/sim"
)

// fuzzCrashAdversary decodes an arbitrary byte string into a crash
// schedule: every 3-byte group (round, node, mode) crashes one node at
// one round, with mode selecting clean vs mid-send partial delivery with
// a byte-derived recipient mask. This explores crash timings no
// hand-written strategy covers.
type fuzzCrashAdversary struct {
	orders map[int][]sim.CrashOrder
	budget int
}

func decodeCrashSchedule(data []byte, n, rounds int) *fuzzCrashAdversary {
	adv := &fuzzCrashAdversary{orders: make(map[int][]sim.CrashOrder), budget: n - 1}
	issued := 0
	for i := 0; i+2 < len(data) && issued < n-1; i += 3 {
		round := int(data[i]) % rounds
		node := int(data[i+1]) % n
		mode := data[i+2]
		order := sim.CrashOrder{Node: node}
		if mode%2 == 1 {
			mask := mode
			order.Filter = func(to int) bool { return (to+int(mask))%3 != 0 }
		}
		adv.orders[round] = append(adv.orders[round], order)
		issued++
	}
	return adv
}

// Crashes implements sim.CrashAdversary, enforcing the n−1 budget across
// duplicated orders (the network ignores repeats on dead nodes anyway).
func (a *fuzzCrashAdversary) Crashes(view sim.View) []sim.CrashOrder {
	return a.orders[view.Round]
}

// FuzzCrashRenaming runs the full crash algorithm against byte-decoded
// adversary schedules and asserts the strong renaming guarantee: every
// surviving node decides, identities are unique and within [1, n], and
// the round bound holds.
func FuzzCrashRenaming(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{9, 9, 1, 9, 8, 1, 9, 7, 1, 9, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 24
		cfg := seqConfig(n, 4*n, 77)
		cfg.CommitteeScale = 0.08
		// The first byte also steers the optional extension knobs so the
		// fuzzer covers the early-stop and no-doubling paths.
		if len(data) > 0 {
			cfg.EarlyStop = data[0]&1 == 1
			cfg.DisableReelectionDoubling = data[0]&2 == 2
		}
		adv := decodeCrashSchedule(data, n, cfg.TotalRounds())

		nodes := make([]*CrashNode, n)
		simNodes := make([]sim.Node, n)
		for i := 0; i < n; i++ {
			nodes[i] = NewCrashNode(cfg, i)
			simNodes[i] = nodes[i]
		}
		nw := sim.NewNetwork(simNodes,
			sim.WithCrashAdversary(adv),
			sim.WithPeek(func(i int) any { return nodes[i].Peek() }),
		)
		if err := nw.Run(cfg.TotalRounds() + 1); err != nil {
			t.Fatalf("run: %v", err)
		}
		if nw.AliveCount() == 0 {
			return // schedule killed everyone; vacuous
		}
		seen := make(map[int]int)
		for i, node := range nodes {
			if !nw.Alive(i) {
				continue
			}
			id, ok := node.Output()
			if !ok {
				if cfg.DisableReelectionDoubling {
					return // the ablation is allowed to starve (see A1)
				}
				t.Fatalf("alive node %d undecided (schedule %v)", i, data)
			}
			if id < 1 || id > n {
				t.Fatalf("node %d got id %d", i, id)
			}
			if prev, dup := seen[id]; dup {
				t.Fatalf("nodes %d and %d share id %d", prev, i, id)
			}
			seen[id] = i
		}
	})
}

// FuzzByzantineRenaming runs the Byzantine algorithm against byte-decoded
// corruption patterns (which links are Byzantine and with which
// behaviour) and asserts uniqueness + order preservation whenever the
// committee assumption holds.
func FuzzByzantineRenaming(f *testing.F) {
	f.Add([]byte{1, 1}, int64(3))
	f.Add([]byte{3, 2, 9, 4, 15, 1}, int64(5))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		const n = 18
		cfg := byzConfig(n, 6*n, seed, 0)
		maxByz := cfg.MaxByzantine()
		byz := make(map[int]ByzBehavior)
		for i := 0; i+1 < len(data) && len(byz) < maxByz; i += 2 {
			link := int(data[i]) % n
			behavior := ByzBehavior(int(data[i+1])%6) + BehaviorSilent
			byz[link] = behavior
		}
		run := buildByzRun(t, cfg, byz)
		run.execute(t)
		if !run.assumptionHolds() {
			return
		}
		run.checkStrongOrderPreserving(t)
		run.checkPartitions(t)
	})
}

// FuzzAbsorbNew feeds arbitrary NEW words — the one wire form, which a
// Byzantine member controls bit for bit — into a ByzNode waiting for its
// new identity, on committee and non-committee links, then runs the
// decision rule. Each 9-byte record of data is a sender link byte and a
// little-endian 64-bit word. Decoding must never panic, only committee
// links may add a vote (at most one each), and fewer than ⌈m/3⌉ voters —
// every vote a sub-third Byzantine committee share can cast — must never
// decide.
func FuzzAbsorbNew(f *testing.F) {
	const n = 32
	cfg := byzConfig(n, 6*n, 1, 0).Precompute()
	record := func(link byte, w uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{link}, w)
	}
	codec := newByzCodec(n, cfg.N)
	vote := codec.encodeNew(NewPayload{NewID: 5}).w
	var quorum []byte
	for _, link := range []byte{1, 3, 5, 7} {
		quorum = append(quorum, record(link, vote)...)
	}
	f.Add(uint8(3), quorum)
	f.Add(uint8(3), append(record(2, vote), record(4, vote)...))
	f.Add(uint8(11), append(record(1, ^uint64(0)), record(1, 0)...))
	f.Add(uint8(11), record(1, vote))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, members uint8, data []byte) {
		node := NewByzNode(cfg, 0)
		node.phase = phWait
		m := 1 + int(members)%12
		for k := 0; k < m; k++ {
			node.memberLinks = append(node.memberLinks, 1+2*k) // odd links vote, even links do not
		}
		boxes := make([]PackedNew, 0, len(data)/9)
		var inbox []sim.Message
		voters := make(map[int]bool)
		for i := 0; i+9 <= len(data); i += 9 {
			link := int(data[i]) % n
			boxes = append(boxes, PackedNew{w: binary.LittleEndian.Uint64(data[i+1:]), bits: codec.bits})
			inbox = append(inbox, sim.Message{From: link, To: 0, Payload: &boxes[len(boxes)-1]})
			if link%2 == 1 && link < 2*m {
				voters[link] = true
			}
		}
		node.absorbNew(inbox)
		node.tryDecide()
		for link := range node.newVotes {
			if !voters[link] {
				t.Fatalf("link %d voted without being a committee member that sent NEW", link)
			}
		}
		if len(node.newVotes) != len(voters) {
			t.Fatalf("%d votes recorded from %d committee senders", len(node.newVotes), len(voters))
		}
		if node.decided && len(voters) < (m+2)/3 {
			t.Fatalf("decided %d on %d fabricated votes of a %d-member committee", node.newID, len(voters), m)
		}
		if node.decided && len(voters) < m-((m+2)/3-1) {
			t.Fatalf("decided below the two-thirds quorum: %d of %d", len(voters), m)
		}
	})
}
