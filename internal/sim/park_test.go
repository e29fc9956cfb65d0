package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The parking scenario: a fleet of flipNodes (Quiescent), schedNodes
// (ScheduleQuiescent) and plainNodes (neither), with rushing and
// Byzantine links, crashes that hit parked and busy nodes (some mid-send
// with filters), ToSet multicasts among unicasts, and ToAll bursts heavy
// enough to push adaptive runs from collapsed into parallel rounds.
const (
	parkN      = 64
	parkRounds = 48
	parkSeed   = 7
	parkBusy   = 2  // steps a flipNode stays busy after mail
	burstEvery = 16 // plainNodes burst ToAll in rounds r%burstEvery == burstEvery-1
)

var (
	parkRushing   = []int{3, 16}
	parkByzantine = []int{5, 16}
)

// parkProbe is the state every parking-test node shares: a hash of every
// inbox it has seen, its Step call log (round and inbox, To excluded)
// and the number of times the engine polled its quiescence. script, when
// set, replaces emit's hash-derived traffic (the fuzz programs of
// FuzzEngineVsReference).
type parkProbe struct {
	idx, n int
	state  uint64
	sets   *Sets
	log    strings.Builder
	polls  int
	steps  int
	script func(p *parkProbe, round int) Outbox
}

func (p *parkProbe) UseSets(s *Sets)     { p.sets = s }
func (p *parkProbe) Output() (int, bool) { return 0, false }
func (p *parkProbe) Halted() bool        { return false }
func (p *parkProbe) probe() *parkProbe   { return p }

// absorb logs a Step call and folds the round and inbox into the state.
func (p *parkProbe) absorb(round int, inbox []Message) uint64 {
	p.steps++
	fmt.Fprintf(&p.log, "r%d n%d:", round, p.idx)
	h := p.state*1099511628211 + uint64(round)
	for _, msg := range inbox {
		h = (h ^ uint64(msg.From)) * 1099511628211
		h = (h ^ uint64(msg.Payload.Bits())) * 1099511628211
		fmt.Fprintf(&p.log, "%d:%s/%d,", msg.From, msg.Payload.Kind(), msg.Payload.Bits())
	}
	p.log.WriteByte(';')
	p.state = h
	return h
}

// emit derives sparse traffic from h: mostly nothing, sometimes one or
// two unicasts, rarely a ToSet multicast to an eight-member set.
func (p *parkProbe) emit(round int, h uint64) Outbox {
	if p.script != nil {
		return p.script(p, round)
	}
	payload := Payload(pingPayload{size: int(h>>8%32) + 1})
	if h>>13&1 == 1 {
		payload = pongPayload{size: int(h>>14%32) + 1}
	}
	a, b := int(h>>20%uint64(p.n)), int(h>>26%uint64(p.n))
	switch h % 64 {
	case 0, 1, 2, 3:
		return Outbox{{From: p.idx, To: a, Payload: payload}}
	case 4, 5:
		return Outbox{{From: p.idx, To: a, Payload: payload}, {From: p.idx, To: b, Payload: payload}}
	case 6:
		var members []int
		for j := 0; j < p.n; j++ {
			if (j+round+p.idx)%8 == 0 {
				members = append(members, j)
			}
		}
		if id, ok := p.sets.InternPhase(uint64(round)<<8|uint64(p.idx%8+1), members); ok {
			return Outbox{{From: p.idx, To: ToSet(id), Payload: payload}}
		}
		return Multicast(p.idx, members, payload)
	}
	return nil
}

// flipNode is quiet until it receives mail, then busy for parkBusy
// steps — each of which changes its state and may send — and quiet
// again. Quiet, an empty-inbox Step is a no-op, so it vouches Quiescent.
type flipNode struct {
	parkProbe
	busy int
}

func (f *flipNode) Quiescent() bool {
	f.polls++
	return f.busy == 0
}

func (f *flipNode) Step(round int, inbox []Message) Outbox {
	if f.busy == 0 && len(inbox) == 0 {
		fmt.Fprintf(&f.log, "r%d n%d:idle;", round, f.idx)
		return nil
	}
	h := f.absorb(round, inbox)
	if len(inbox) > 0 {
		f.busy = parkBusy
	}
	f.busy--
	return f.emit(round, h)
}

// schedNode acts every third round; on the others an empty inbox is a
// no-op, so it vouches QuiescentAt for them.
type schedNode struct{ parkProbe }

func (s *schedNode) QuiescentAt(round int) bool {
	s.polls++
	return round%3 != 1
}

func (s *schedNode) Step(round int, inbox []Message) Outbox {
	return s.emit(round, s.absorb(round, inbox))
}

// plainNode vouches nothing, so it is stepped every round; its burst
// rounds send six ToAll entries each.
type plainNode struct{ parkProbe }

func (p *plainNode) Step(round int, inbox []Message) Outbox {
	h := p.absorb(round, inbox)
	if round%burstEvery == burstEvery-1 {
		out := make(Outbox, 6)
		for k := range out {
			out[k] = Message{From: p.idx, To: ToAll, Payload: pingPayload{size: k + 1}}
		}
		return out
	}
	return p.emit(round, h)
}

type prober interface {
	Node
	probe() *parkProbe
}

func newParkFleet() []prober {
	fleet := make([]prober, parkN)
	for i := range fleet {
		base := parkProbe{idx: i, n: parkN, state: uint64(i)*0x9e3779b9 + 1}
		switch i % 8 {
		case 0:
			fleet[i] = &plainNode{base}
		case 1, 2:
			fleet[i] = &schedNode{base}
		default:
			fleet[i] = &flipNode{parkProbe: base}
		}
	}
	return fleet
}

// parkAdversary crashes two nodes every fifth round from round 2: the
// first quiet flipNode with no mail (a parked node, in the engine) and
// the first node that will step. Filters cycle through none, keep all,
// keep none and a random half drawn from one shared rng.
type parkAdversary struct{ rng *rand.Rand }

func (a *parkAdversary) Crashes(v View) []CrashOrder {
	if v.Round%5 != 2 {
		return nil
	}
	var orders []CrashOrder
	for _, wantQuiet := range []bool{true, false} {
		for k := 0; k < len(v.Alive); k++ {
			i := (v.Round*13 + k*7) % len(v.Alive)
			if !v.Alive[i] {
				continue
			}
			f, isFlip := v.Peek(i).(*flipNode)
			quiet := isFlip && f.busy == 0 && len(v.Inbox(i)) == 0
			if quiet != wantQuiet {
				continue
			}
			orders = append(orders, CrashOrder{Node: i, Filter: a.filter(v.Round + len(orders))})
			break
		}
	}
	return orders
}

func (a *parkAdversary) filter(k int) SendFilter {
	switch k % 4 {
	case 1:
		return func(int) bool { return true }
	case 2:
		return func(int) bool { return false }
	case 3:
		decided := map[int]bool{}
		return func(to int) bool {
			if keep, ok := decided[to]; ok {
				return keep
			}
			keep := a.rng.Intn(2) == 0
			decided[to] = keep
			return keep
		}
	}
	return nil
}

func parkLog(fleet []prober) string {
	var b strings.Builder
	for _, nd := range fleet {
		b.WriteString(nd.probe().log.String())
	}
	return b.String()
}

func parkPolls(fleet []prober) int {
	total := 0
	for _, nd := range fleet {
		total += nd.probe().polls
	}
	return total
}

func parkNodes(fleet []prober) ([]Node, func(int) any) {
	nodes := make([]Node, len(fleet))
	for i, nd := range fleet {
		nodes[i] = nd
	}
	return nodes, func(i int) any { return fleet[i] }
}

// parkStats is what one engine run reports about its rounds.
type parkStats struct {
	parked, full, parallel int
	parkedParallel         int // parked rounds whose steps fanned across the pool
	awake                  int // Σ |awake| over parked rounds
	polls, steps           int
}

// runParkEngine runs the parking scenario on a fresh network, or on a
// lease of pool when it is non-nil.
func runParkEngine(t *testing.T, pool *Pool, workers int, eager bool) (compactRun, parkStats) {
	t.Helper()
	fleet := newParkFleet()
	nodes, peek := parkNodes(fleet)
	var digests []RoundDigest
	opts := []Option{
		WithCrashAdversary(&parkAdversary{rng: rand.New(rand.NewSource(parkSeed))}),
		WithPeek(peek),
		WithRushing(parkRushing),
		WithByzantine(parkByzantine),
		WithEngineWorkers(workers),
		recordDigests(&digests),
	}
	if eager {
		opts = append(opts, WithEagerMulticast())
	}
	build := NewNetwork
	if pool != nil {
		build = pool.Acquire
	}
	nw := build(nodes, opts...)
	defer nw.Close()
	var st parkStats
	for r := 0; r < parkRounds; r++ {
		parked, awake := nw.parked, len(nw.awake)
		before := parkPolls(fleet)
		nw.StepRound()
		polls := parkPolls(fleet) - before
		// A round fans its steps across the pool when more than one
		// worker is active; parking applies to both kinds of round.
		parallel := nw.active > 1
		if parallel {
			st.parallel++
		}
		bound := parkN
		if parked {
			st.parked++
			st.awake += awake
			bound = awake
			if parallel {
				st.parkedParallel++
			}
		} else {
			st.full++
		}
		if polls > bound {
			t.Errorf("workers=%d eager=%v round %d: %d polls, at most %d nodes may be polled", workers, eager, r, polls, bound)
		}
		st.polls += polls
	}
	for _, nd := range fleet {
		st.steps += nd.probe().steps
	}
	return compactRun{log: parkLog(fleet), metrics: *nw.Metrics(), digests: digests}, st
}

// TestParkingMatchesReference is the differential check of parking: an
// engine that polls a vouching node once and then leaves it parked until
// it has mail must make exactly the Step calls — same rounds, same
// inboxes — and produce exactly the metrics and round digests of the
// reference that polls every node every round. It runs adaptive (a
// four-worker pool) and at pinned 1, 2 and 8 workers, with and without
// shared multicasts, and checks that parking engages at every worker
// count: a parked round polls only its awake list, whether its steps
// run on the coordinator or fan across the pool, and parked rounds are
// the norm.
func TestParkingMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	fleet := newParkFleet()
	nodes, peek := parkNodes(fleet)
	m, digests := runReference(refScenario{
		nodes:     nodes,
		adv:       &parkAdversary{rng: rand.New(rand.NewSource(parkSeed))},
		peek:      peek,
		rushing:   parkRushing,
		byzantine: parkByzantine,
		rounds:    parkRounds,
	})
	want := compactRun{log: parkLog(fleet), metrics: m, digests: digests}
	if m.HonestMessages == m.Messages || m.PerKind["ping"] == 0 || m.PerKind["pong"] == 0 {
		t.Fatalf("reference scenario lacks Byzantine or mixed traffic: %+v", m)
	}
	for _, workers := range []int{0, 1, 2, 8} {
		for _, eager := range []bool{false, true} {
			got, st := runParkEngine(t, nil, workers, eager)
			name := fmt.Sprintf("workers=%d eager=%v", workers, eager)
			diffRuns(t, name, got, want)
			t.Logf("%s: %d parked (%d of them parallel), %d full-scan, %d parallel rounds; %d polls, %d steps, %d messages, %d awake visits",
				name, st.parked, st.parkedParallel, st.full, st.parallel, st.polls, st.steps, got.metrics.Messages, st.awake)
			if workers != 1 && st.parkedParallel == 0 {
				t.Errorf("%s: no parked round fanned its steps across the pool", name)
			}
			if st.parked < parkRounds/2 {
				t.Errorf("%s: only %d of %d rounds parked", name, st.parked, parkRounds)
			}
			if 2*st.awake > parkN*st.parked {
				t.Errorf("%s: parked rounds visited %d awake nodes, half of n is %d per round", name, st.awake/st.parked, parkN/2)
			}
			if st.polls > st.steps+int(got.metrics.Messages)+st.awake {
				t.Errorf("%s: %d polls exceed %d steps + %d deliveries + %d awake visits",
					name, st.polls, st.steps, got.metrics.Messages, st.awake)
			}
			if workers == 0 && st.parallel == 0 {
				t.Errorf("%s: no burst pushed the adaptive engine into a parallel round", name)
			}
		}
	}
	// A pooled lease must start unparked: each run ends with parking
	// state (an awake list, parked set) that reset has to clear.
	pool := NewPool()
	defer pool.Close()
	for lease := 0; lease < 3; lease++ {
		workers := 1
		if lease == 2 {
			workers = 4 // the reused engine grows its worker pool
		}
		got, _ := runParkEngine(t, pool, workers, lease == 1)
		if got.log != want.log || !reflect.DeepEqual(got.metrics, want.metrics) || !reflect.DeepEqual(got.digests, want.digests) {
			t.Errorf("pooled lease %d diverges from the reference", lease)
		}
	}
}
