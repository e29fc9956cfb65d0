package main

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"renaming"
	"renaming/internal/campaign"
	"renaming/internal/service"
	"renaming/internal/sim"
	"renaming/internal/stats"
)

// The churn-1m workload: a long-lived service at a million-name
// capacity, driven epoch by epoch. Each operation is one RunEpoch write
// followed by the caller's LiveClients read.
const (
	churnCapacity = 1 << 20
	churnBigN     = 1 << 24
	churnBatch    = 256
	// churnWarmup epochs run inside set-up, so the pooled engine and the
	// service's scratch have grown before timing starts.
	churnWarmup = 100
	// churnSetups repeats the whole set-up to report its median.
	churnSetups = 3
	// churnMinEpochs gives the p99 ten samples beyond it; the digest
	// covers the warm-up plus exactly these epochs.
	churnMinEpochs = 1000
	churnTail      = 0.99
)

func churnConfig(seed int64) service.Config {
	return service.Config{
		Capacity: churnCapacity, BigN: churnBigN,
		Seed: runSeed(seed, labelChurn, 0),
		Core: service.CoreCrash,
	}
}

// churnRig is one service with its request generator, oracle and
// digest.
type churnRig struct {
	svc    *service.Service
	driver *service.TraceDriver
	oracle *campaign.ServiceOracle
	live   []int
	digest *digester
	epochs int
}

// newChurnRig generates the request trace (not timed), then builds the
// service and runs the warm-up epochs (timed: the set-up seconds).
func newChurnRig(seed int64, cfg service.Config, out *report) (*churnRig, float64, error) {
	driver, err := service.NewTraceDriver(service.TraceSpec{
		Capacity: churnCapacity, BigN: churnBigN,
		JoinMax: churnBatch, LeaveMax: churnBatch,
		Seed: runSeed(seed, labelTrace, 0),
	})
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	svc, err := service.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(start)
	rig := &churnRig{svc: svc, driver: driver, oracle: campaign.NewServiceOracle(churnCapacity, service.CoreCrash), digest: newDigester()}
	for e := 0; e < churnWarmup; e++ {
		joins, leaves, err := rig.next()
		if err != nil {
			svc.Close()
			return nil, 0, err
		}
		t0 := time.Now()
		res, err := rig.epoch(joins, leaves)
		setup += time.Since(t0)
		rig.check(out, res, err)
	}
	return rig, setup.Seconds(), nil
}

func (g *churnRig) next() ([]service.Client, []int, error) { return g.driver.NextEpoch(g.live) }

// epoch is the measured operation: the write, then the read.
func (g *churnRig) epoch(joins []service.Client, leaves []int) (*service.EpochResult, error) {
	res, err := g.svc.RunEpoch(joins, leaves)
	if err != nil {
		return nil, err
	}
	g.live = g.svc.LiveClients()
	return res, nil
}

// check runs the service oracle on one epoch and folds the epoch into
// the digest while it is inside the digest window.
func (g *churnRig) check(out *report, res *service.EpochResult, err error) {
	op := fmt.Sprintf("epoch %d", g.epochs)
	g.epochs++
	if err != nil {
		out.check(op, []string{err.Error()})
		return
	}
	problems := violations(g.oracle.CheckEpoch(res))
	if res.Aborted {
		problems = append(problems, "epoch aborted: "+res.AbortReason)
	}
	if res.Joined != res.JoinsRequested {
		problems = append(problems, fmt.Sprintf("%d of %d joins committed", res.Joined, res.JoinsRequested))
	}
	out.check(op, problems)
	if g.epochs <= churnWarmup+churnMinEpochs {
		names := make([]int, 0, 3*len(res.Assignments))
		for _, a := range res.Assignments {
			names = append(names, a.Client, a.Name, a.Rank)
		}
		g.digest.add(res.Rounds, res.Messages, res.HonestBits, names)
	}
}

func runChurn(p params, out *report) error {
	out.listLen = 1
	if p.trace {
		return runChurnTraced(p, out)
	}
	var rig *churnRig
	var setups []float64
	for i := 0; i < churnSetups; i++ {
		if rig != nil {
			rig.svc.Close()
		}
		r, secs, err := newChurnRig(p.seed, churnConfig(p.seed), out)
		if err != nil {
			return err
		}
		rig, setups = r, append(setups, secs)
	}
	defer rig.svc.Close()

	tot := opTotals{heap: startHeapSampler()}
	defer tot.heap.close()
	var work simWork
	start := time.Now()
	for e := 0; e < churnMinEpochs || time.Since(start) < p.seconds; e++ {
		joins, leaves, err := rig.next()
		if err != nil {
			return err
		}
		var res *service.EpochResult
		err = tot.measure(func() (err error) {
			res, err = rig.epoch(joins, leaves)
			return err
		})
		rig.check(out, res, err)
		if err != nil {
			continue
		}
		work.add(int64(res.Joined), res.Messages, res.HonestBits, int64(res.JoinsRequested), res.Rounds)
	}
	out.digest = rig.digest.String()
	endToEnd(out, &tot, work, stats.Quantile(setups, 0.5), churnTail)
	return nil
}

// runChurnTraced drives two identical services in lockstep on the same
// requests: A untraced, B with a Config.FaultForEpoch hook that marks
// the start of each epoch's inner one-shot run and returns a wrapped
// no-op crash adversary, whose per-round calls mark the run's rounds.
// Their epoch results and live views must agree exactly.
func runChurnTraced(p params, out *report) error {
	l := newLedger()
	hookAt := int64(-1)
	cfgB := churnConfig(p.seed)
	cfgB.FaultForEpoch = func(epoch, batch int) renaming.FaultSpec {
		hookAt = l.now()
		return renaming.FaultSpec{Custom: l.wrapAdversary(sim.NoCrashes{})}
	}
	a, _, err := newChurnRig(p.seed, churnConfig(p.seed), out)
	if err != nil {
		return err
	}
	defer a.svc.Close()
	b, _, err := newChurnRig(p.seed, cfgB, out)
	if err != nil {
		return err
	}
	defer b.svc.Close()
	l.crashesNs, l.orders = 0, 0 // drop the warm-up epochs' adversary calls

	var untraced opTotals
	var epochNs, liveNs, setupNs, roundNs int64
	var joined, recycled int64
	start := time.Now()
	for e := 0; e < churnMinEpochs || time.Since(start) < p.seconds; e++ {
		joins, leaves, err := a.next()
		if err != nil {
			return err
		}
		var resA *service.EpochResult
		err = untraced.measure(func() (err error) {
			resA, err = a.epoch(joins, leaves)
			return err
		})
		a.check(out, resA, err)

		hookAt, l.advCalls = -1, 0
		t0 := l.now()
		resB, errB := b.svc.RunEpoch(joins, leaves)
		t1 := l.now()
		if errB == nil {
			b.live = b.svc.LiveClients()
		}
		t2 := l.now()
		b.check(out, resB, errB)
		if err != nil || errB != nil {
			continue
		}
		l.ops++
		l.wholeNs += t2 - t0
		epochNs += t1 - t0
		liveNs += t2 - t1
		if hookAt >= 0 && l.advCalls > 1 {
			// The inner run starts at the hook and its rounds at the first
			// adversary call; the last round is taken to last as long as
			// the mean of the others.
			span := l.lastAdv - l.firstAdv
			setupNs += l.firstAdv - hookAt
			roundNs += span + span/int64(l.advCalls-1)
		}
		l.rounds += int64(l.advCalls)
		l.msgs += resB.Messages
		joined += int64(resB.Joined)
		recycled += int64(resB.Recycled)
		if !reflect.DeepEqual(resA, resB) || !slices.Equal(a.live, b.live) {
			out.check(fmt.Sprintf("epoch %d traced", e), []string{"traced service diverged from the untraced one"})
		}
	}
	out.digest = a.digest.String()
	if b.digest.String() != out.digest {
		out.check("traced digest", []string{"traced digest " + b.digest.String() + " differs from untraced " + out.digest})
	}

	initLayers(out)
	ops := float64(max(1, l.ops))
	perOp := func(ns int64) float64 { return float64(ns) / nsPerS / ops }
	out.set("service.epoch_s", "s", perOp(epochNs))
	out.set("service.core_setup_s", "s", perOp(setupNs))
	out.set("service.core_s", "s", perOp(setupNs+roundNs))
	out.set("service.bookkeeping_s", "s", perOp(epochNs-setupNs-roundNs))
	out.set("service.live_view_s", "s", perOp(liveNs))
	out.set("service.joins", "count", float64(joined)/ops)
	out.set("service.recycled", "count", float64(recycled)/ops)
	out.set("service.aborts", "count", float64(b.svc.Aborts()))
	out.set("sim.round_s", "s", perOp(roundNs))
	out.set("sim.route_self_s", "s", perOp(roundNs-l.crashesNs))
	if l.msgs > 0 {
		out.set("sim.route_ns_per_msg", "ns", float64(roundNs-l.crashesNs)/float64(l.msgs))
	}
	out.set("sim.msgs", "count", float64(l.msgs)/ops)
	out.set("sim.rounds", "count", float64(l.rounds)/ops)
	out.set("adversary.crashes_s", "s", perOp(l.crashesNs))
	finishLayers(out, l, &untraced)
	return nil
}
