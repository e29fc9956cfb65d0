package sim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// compactRun is everything a differential run compares.
type compactRun struct {
	log     string
	metrics Metrics
	digests []RoundDigest
}

// refScenario is one execution for the sequential reference: a fresh
// fleet, its crash adversary (and Peek), the rushing and Byzantine links
// and the round count.
type refScenario struct {
	nodes     []Node
	adv       CrashAdversary
	peek      func(node int) any
	rushing   []int // ascending
	byzantine []int
	rounds    int
	limit     int
}

// runReference executes a scenario on the obvious sequential model the
// engine used to implement literally. Every alive non-rushing node with
// an empty inbox is polled every round and stepped unless it vouches
// idle (Quiescent first, then QuiescentAt). Rushing nodes then step with
// their inbox plus a preview of this round's messages addressed to them.
// Every outbox is expanded to explicit per-recipient messages. A mid-send
// filter is called once per previewed message, then once per wire
// message in (sender, emission) order, with its verdict kept per
// message. Kept messages are billed and appended to their recipient's
// next inbox, senders ascending; a Byzantine sender's messages count in
// the totals, not in the honest, largest-message or CONGEST figures.
func runReference(sc refScenario) (Metrics, []RoundDigest) {
	nodes := sc.nodes
	n := len(nodes)
	sets := &Sets{}
	sets.reset(n, false)
	for _, nd := range nodes {
		if su, ok := nd.(SetUser); ok {
			su.UseSets(sets)
		}
	}
	rushing := make([]bool, n)
	for _, r := range sc.rushing {
		rushing[r] = true
	}
	byzantine := make([]bool, n)
	for _, b := range sc.byzantine {
		byzantine[b] = true
	}
	m := NewMetrics()
	m.sizeFor(n)
	m.CongestLimit = sc.limit
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	expand := func(s int, out Outbox) []Message {
		var wire []Message
		for _, msg := range out {
			switch {
			case msg.To == ToAll:
				for to := 0; to < n; to++ {
					wire = append(wire, Message{From: s, To: to, Payload: msg.Payload})
				}
			case msg.To <= toSetBase:
				for _, to := range sets.membersOf(toSetID(msg.To)) {
					wire = append(wire, Message{From: s, To: int(to), Payload: msg.Payload})
				}
			default:
				wire = append(wire, Message{From: s, To: msg.To, Payload: msg.Payload})
			}
		}
		return wire
	}
	inboxes := make([][]Message, n)
	var digests []RoundDigest
	for r := 0; r < sc.rounds; r++ {
		view := View{Round: r, Alive: append([]bool(nil), alive...), Inbox: func(i int) []Message { return inboxes[i] }, Peek: sc.peek}
		filters := map[int]SendFilter{}
		for _, o := range sc.adv.Crashes(view) {
			if o.Node < 0 || o.Node >= n || !alive[o.Node] {
				continue
			}
			alive[o.Node] = false
			if o.Filter != nil {
				filters[o.Node] = o.Filter
			}
		}
		steps := func(i int) bool {
			_, midSend := filters[i]
			return alive[i] || midSend
		}
		wire := make([][]Message, n)
		for i, nd := range nodes {
			if rushing[i] || !steps(i) || len(inboxes[i]) == 0 && vouchesIdle(nd, r) {
				continue
			}
			wire[i] = expand(i, nd.Step(r, inboxes[i]))
		}
		previews := make([][]Message, n)
		for s := range wire {
			for _, msg := range wire[s] {
				if !rushing[msg.To] || filters[s] != nil && !filters[s](msg.To) {
					continue
				}
				previews[msg.To] = append(previews[msg.To], msg)
			}
		}
		for _, i := range sc.rushing {
			if steps(i) {
				inbox := append(append([]Message(nil), inboxes[i]...), previews[i]...)
				wire[i] = expand(i, nodes[i].Step(r, inbox))
			}
		}
		next := make([][]Message, n)
		d := RoundDigest{Round: r, PerKind: map[string]int64{}}
		for s := 0; s < n; s++ {
			keep := make([]bool, len(wire[s]))
			for k := range wire[s] {
				keep[k] = filters[s] == nil || filters[s](wire[s][k].To)
			}
			for k, msg := range wire[s] {
				if !keep[k] {
					continue
				}
				kind, bits := msg.Payload.Kind(), msg.Payload.Bits()
				m.Messages++
				m.Bits += int64(bits)
				// The size checks measure the algorithm, not the
				// adversary: Byzantine payloads count in the totals only.
				if !byzantine[s] {
					m.HonestMessages++
					m.HonestBits += int64(bits)
					m.MaxMessageBits = max(m.MaxMessageBits, bits)
					if sc.limit > 0 && bits > sc.limit {
						m.OversizeMessages++
					}
				}
				m.PerKind[kind]++
				m.PerKindBits[kind] += int64(bits)
				m.PerNodeSent[s]++
				m.PerNodeReceived[msg.To]++
				d.Messages++
				d.Bits += int64(bits)
				d.PerKind[kind]++
				next[msg.To] = append(next[msg.To], msg)
			}
		}
		digests = append(digests, d)
		inboxes = next
	}
	m.Rounds = sc.rounds
	return *m, digests
}

// vouchesIdle polls nd's quiescence contracts in the engine's order.
func vouchesIdle(nd Node, round int) bool {
	if q, ok := nd.(Quiescent); ok && q.Quiescent() {
		return true
	}
	if q, ok := nd.(ScheduleQuiescent); ok && q.QuiescentAt(round) {
		return true
	}
	return false
}

// recordDigests returns a WithRoundDigest option that appends a copy of
// every round digest to dst (the engine reuses the PerKind map).
func recordDigests(dst *[]RoundDigest) Option {
	return WithRoundDigest(func(d RoundDigest) {
		kinds := make(map[string]int64, len(d.PerKind))
		for k, v := range d.PerKind {
			kinds[k] = v
		}
		d.PerKind = kinds
		*dst = append(*dst, d)
	})
}

// diffRuns reports every way an engine run got differs from the
// reference run want.
func diffRuns(t *testing.T, name string, got, want compactRun) {
	t.Helper()
	if got.log != want.log {
		t.Errorf("%s: inbox and Step logs diverge from the reference at byte %d", name, firstDiff(got.log, want.log))
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		t.Errorf("%s: metrics\n got %+v\nwant %+v", name, got.metrics, want.metrics)
	}
	if !reflect.DeepEqual(got.digests, want.digests) {
		t.Errorf("%s: round digests\n got %+v\nwant %+v", name, got.digests, want.digests)
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// fuzzProgram is a node program over n <= 64 links, decoded from the
// bytes of FuzzEngineVsReference: the parking fleet's node kinds driven
// by a script instead of their hash-derived traffic, interned sets that
// may overlap, a crash schedule with mid-send filters, and rushing and
// Byzantine links.
type fuzzProgram struct {
	n, rounds, limit   int
	seed               int64
	sets               [][]int // ascending member lists
	rushing, byzantine []int   // ascending
	crashes            []fuzzCrash
	kinds              []byte // per node: 0 plainNode, 1 flipNode, 2 schedNode
	// ops holds two bytes per (round, node), round-major: a shape (low
	// three bits) with set and payload selectors, and a unicast target.
	// Missing bytes are silence.
	ops []byte
}

// fuzzCrash crashes node in round; filter picks parkAdversary.filter's
// shape: none (crash before sending), keep all, keep none or a random
// half from the run's shared rng.
type fuzzCrash struct{ round, node, filter int }

// decodeFuzzProgram reads a program from data, one byte per field and
// zero past the end; encode is its inverse.
func decodeFuzzProgram(data []byte) fuzzProgram {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := fuzzProgram{n: 1 + next()%64, rounds: 2 + next()%14, limit: next(), seed: int64(next())}
	for k := next() % 5; k > 0; k-- {
		var mask uint64
		for j := 0; j < 8; j++ {
			mask |= uint64(next()) << (8 * j)
		}
		var members []int
		for m := 0; m < p.n; m++ {
			if mask>>m&1 == 1 {
				members = append(members, m)
			}
		}
		p.sets = append(p.sets, members)
	}
	links := func() []int {
		in := make([]bool, p.n)
		for k := next() % 4; k > 0; k-- {
			in[next()%p.n] = true
		}
		var list []int
		for i, ok := range in {
			if ok {
				list = append(list, i)
			}
		}
		return list
	}
	p.rushing, p.byzantine = links(), links()
	for k := next() % 9; k > 0; k-- {
		p.crashes = append(p.crashes, fuzzCrash{round: next() % p.rounds, node: next() % p.n, filter: next() % 4})
	}
	p.kinds = make([]byte, p.n)
	for i := range p.kinds {
		p.kinds[i] = byte(next() % 3)
	}
	p.ops = data
	return p
}

func (p fuzzProgram) encode() []byte {
	b := []byte{byte(p.n - 1), byte(p.rounds - 2), byte(p.limit), byte(p.seed), byte(len(p.sets))}
	for _, s := range p.sets {
		var mask uint64
		for _, m := range s {
			mask |= 1 << m
		}
		b = binary.LittleEndian.AppendUint64(b, mask)
	}
	for _, links := range [][]int{p.rushing, p.byzantine} {
		b = append(b, byte(len(links)))
		for _, l := range links {
			b = append(b, byte(l))
		}
	}
	b = append(b, byte(len(p.crashes)))
	for _, c := range p.crashes {
		b = append(b, byte(c.round), byte(c.node), byte(c.filter))
	}
	return append(append(b, p.kinds...), p.ops...)
}

// emit is the script behind every node of a fuzz fleet: node pr's outbox
// in round. The last round is silent, so every delivery is observed.
func (p *fuzzProgram) emit(pr *parkProbe, round int) Outbox {
	k := 2 * (round*p.n + pr.idx)
	if round == p.rounds-1 || k+1 >= len(p.ops) {
		return nil
	}
	op, to := int(p.ops[k]), int(p.ops[k+1])
	payload := Payload(pingPayload{size: 1 + op>>3%24})
	if op >= 128 {
		payload = pongPayload{size: 1 + op>>3%24}
	}
	uni := func(to int) Message { return Message{From: pr.idx, To: to, Payload: payload} }
	all := Message{From: pr.idx, To: ToAll, Payload: payload}
	t1, t2 := to%p.n, (to/p.n+pr.idx)%p.n
	s := op >> 3 % 4
	switch op % 8 {
	case 1:
		return Outbox{uni(t1)}
	case 2:
		return p.castSet(pr, s, payload)
	case 3:
		return Outbox{all}
	case 4:
		return append(append(Outbox{uni(t1)}, p.castSet(pr, s, payload)...), uni(t1))
	case 5:
		return append(append(Outbox{all}, p.castSet(pr, s, payload)...), uni(t2))
	case 6:
		return Outbox{uni(t1), uni(t2), uni(t1)}
	case 7:
		return append(p.castSet(pr, s, payload), p.castSet(pr, s+1, payload)...)
	}
	return nil
}

// castSet multicasts payload to the program's set s (modulo the set
// count): one ToSet entry when the registry interns it, explicit copies
// under WithEagerMulticast.
func (p *fuzzProgram) castSet(pr *parkProbe, s int, payload Payload) Outbox {
	if len(p.sets) == 0 {
		return nil
	}
	s %= len(p.sets)
	if id, ok := pr.sets.InternPhase(uint64(s+1), p.sets[s]); ok {
		return Outbox{{From: pr.idx, To: ToSet(id), Payload: payload}}
	}
	return Multicast(pr.idx, p.sets[s], payload)
}

// fleet builds a fresh fleet for one run. flipNodes start busy, so they
// act on their script in round 0 before they first park.
func (p *fuzzProgram) fleet() ([]prober, []Node) {
	fleet := make([]prober, p.n)
	for i := range fleet {
		base := parkProbe{idx: i, n: p.n, state: uint64(i)*0x9e3779b9 + 1, script: p.emit}
		switch p.kinds[i] {
		case 1:
			fleet[i] = &flipNode{parkProbe: base, busy: 1}
		case 2:
			fleet[i] = &schedNode{base}
		default:
			fleet[i] = &plainNode{base}
		}
	}
	nodes, _ := parkNodes(fleet)
	return fleet, nodes
}

// fuzzAdversary issues the program's crash schedule and logs, each round,
// every link's inbox (To excluded) — the dead ones included, which no
// Step call shows.
type fuzzAdversary struct {
	parkAdversary
	crashes []fuzzCrash
	log     *strings.Builder
}

func (p *fuzzProgram) adversary(log *strings.Builder) CrashAdversary {
	return &fuzzAdversary{parkAdversary{rand.New(rand.NewSource(p.seed))}, p.crashes, log}
}

func (a *fuzzAdversary) Crashes(v View) []CrashOrder {
	for i := range v.Alive {
		for _, msg := range v.Inbox(i) {
			fmt.Fprintf(a.log, "r%d n%d<-%d:%s/%d;", v.Round, i, msg.From, msg.Payload.Kind(), msg.Payload.Bits())
		}
	}
	var orders []CrashOrder
	for _, c := range a.crashes {
		if c.round == v.Round {
			orders = append(orders, CrashOrder{Node: c.node, Filter: a.filter(c.filter)})
		}
	}
	return orders
}

func (p *fuzzProgram) runReference() compactRun {
	fleet, nodes := p.fleet()
	var log strings.Builder
	m, digests := runReference(refScenario{
		nodes:     nodes,
		adv:       p.adversary(&log),
		rushing:   p.rushing,
		byzantine: p.byzantine,
		rounds:    p.rounds,
		limit:     p.limit,
	})
	return compactRun{log: log.String() + parkLog(fleet), metrics: m, digests: digests}
}

func (p *fuzzProgram) runEngine(workers int, eager bool) compactRun {
	fleet, nodes := p.fleet()
	var log strings.Builder
	var digests []RoundDigest
	opts := []Option{
		WithCrashAdversary(p.adversary(&log)),
		WithRushing(p.rushing),
		WithByzantine(p.byzantine),
		WithEngineWorkers(workers),
		WithCongestLimit(p.limit),
		recordDigests(&digests),
	}
	if eager {
		opts = append(opts, WithEagerMulticast())
	}
	nw := NewNetwork(nodes, opts...)
	defer nw.Close()
	for r := 0; r < p.rounds; r++ {
		nw.StepRound()
	}
	return compactRun{log: log.String() + parkLog(fleet), metrics: *nw.Metrics(), digests: digests}
}

// fuzzOp is one scripted outbox in a seed program: node's op in round,
// with shape as emit decodes it (1 unicast, 2 ToSet, 3 ToAll, 4 unicast
// + ToSet + unicast, 5 ToAll + ToSet + unicast, 6 three unicasts, 7 two
// ToSets), set the set selector and to the unicast target.
type fuzzOp struct{ round, node, shape, set, to int }

// script fills p.ops from ops, leaving every other (round, node) silent.
func (p *fuzzProgram) script(ops ...fuzzOp) {
	p.ops = make([]byte, 2*p.rounds*p.n)
	for _, o := range ops {
		k := 2 * (o.round*p.n + o.node)
		p.ops[k], p.ops[k+1] = byte(o.shape|o.set<<3), byte(o.to)
	}
}

// fuzzSeeds are the hand-built corpus entries; each names the delivery
// cases it pins.
func fuzzSeeds() []fuzzProgram {
	// Overlap: recipients 2..5 are covered by both S0 and S1, and 3 and 4
	// also get explicit mail from senders below and above the set
	// senders; 1, 3, 5 and 7 lie in S2 as well; round 1 puts a ToAll next
	// to a ToSet, round 2 mixes shared entries into explicit outboxes.
	overlap := fuzzProgram{n: 8, rounds: 4, limit: 12, kinds: make([]byte, 8),
		sets: [][]int{{0, 1, 2, 3, 4, 5}, {2, 3, 4, 5, 6, 7}, {1, 3, 5, 7}}}
	overlap.script(
		fuzzOp{0, 0, 1, 0, 3}, fuzzOp{0, 1, 1, 0, 4}, fuzzOp{0, 3, 2, 0, 0},
		fuzzOp{0, 5, 2, 1, 0}, fuzzOp{0, 6, 1, 0, 3}, fuzzOp{0, 7, 2, 2, 0},
		fuzzOp{1, 0, 1, 0, 2}, fuzzOp{1, 2, 3, 0, 0}, fuzzOp{1, 4, 2, 0, 0},
		fuzzOp{1, 6, 2, 1, 0}, fuzzOp{1, 7, 6, 0, 5},
		fuzzOp{2, 1, 4, 1, 6}, fuzzOp{2, 2, 2, 0, 0}, fuzzOp{2, 3, 5, 2, 9},
		fuzzOp{2, 5, 7, 0, 0}, fuzzOp{2, 6, 2, 2, 0},
	)
	// Mid-send: ToSet senders crash keeping a random half (3), keeping
	// nothing (5) and keeping all (6, which stays shared); a mixed sender
	// crashes before sending (4) and another keeps a random half (1).
	// Rushing node 2 lies in S0 and previews it, filtered, and the
	// Byzantine node 7 bills apart.
	midsend := fuzzProgram{n: 8, rounds: 4, seed: 5, kinds: make([]byte, 8),
		sets:    [][]int{{0, 2, 3, 4, 5, 6, 7}, {1, 2, 5}},
		rushing: []int{2}, byzantine: []int{7},
		crashes: []fuzzCrash{{0, 3, 3}, {0, 5, 2}, {0, 6, 1}, {1, 4, 0}, {1, 1, 3}}}
	midsend.script(
		fuzzOp{0, 0, 1, 0, 2}, fuzzOp{0, 2, 1, 0, 0}, fuzzOp{0, 3, 2, 0, 0},
		fuzzOp{0, 5, 2, 0, 0}, fuzzOp{0, 6, 2, 0, 0}, fuzzOp{0, 7, 2, 1, 0},
		fuzzOp{1, 0, 2, 1, 0}, fuzzOp{1, 1, 5, 0, 4}, fuzzOp{1, 4, 4, 0, 2},
		fuzzOp{1, 7, 3, 0, 0}, fuzzOp{2, 0, 6, 0, 10}, fuzzOp{2, 2, 2, 1, 0},
	)
	// Parking: flipNodes and schedNodes among plain ones; unicast-only
	// rounds park, the ToSet in round 3 forces one full scan, and node 9
	// is crashed mid-send while parked.
	parking := fuzzProgram{n: 12, rounds: 9, seed: 3,
		kinds:   []byte{0, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1},
		sets:    [][]int{{1, 4, 5, 8}},
		crashes: []fuzzCrash{{5, 9, 3}, {6, 4, 1}}}
	parking.script(
		fuzzOp{0, 0, 1, 0, 4}, fuzzOp{0, 1, 1, 0, 7},
		fuzzOp{1, 4, 1, 0, 9}, fuzzOp{1, 7, 1, 0, 2},
		fuzzOp{2, 9, 6, 0, 1}, fuzzOp{2, 2, 1, 0, 11},
		fuzzOp{3, 0, 2, 0, 0}, fuzzOp{3, 11, 1, 0, 5},
		fuzzOp{4, 1, 1, 0, 3}, fuzzOp{4, 5, 4, 0, 6},
		fuzzOp{5, 9, 1, 0, 0}, fuzzOp{5, 3, 1, 0, 8},
		fuzzOp{6, 4, 6, 0, 2}, fuzzOp{7, 0, 1, 0, 10},
	)
	return []fuzzProgram{overlap, midsend, parking}
}

// FuzzEngineVsReference runs programs over up to 64 links through the
// sequential reference and through the engine at 1, 2 and 8 workers,
// with and without shared multicasts, and requires the same inboxes (To
// excluded: bound views keep the sender's sentinel), Step calls, metrics
// and round digests. Besides the hand-built seeds, the corpus holds a
// few random byte strings, long enough to script every node.
func FuzzEngineVsReference(f *testing.F) {
	for _, p := range fuzzSeeds() {
		f.Add(p.encode())
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 4; k++ {
		b := make([]byte, 2048)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzProgram(data)
		want := p.runReference()
		for _, workers := range []int{1, 2, 8} {
			for _, eager := range []bool{false, true} {
				diffRuns(t, fmt.Sprintf("workers=%d eager=%v", workers, eager), p.runEngine(workers, eager), want)
			}
		}
	})
}
