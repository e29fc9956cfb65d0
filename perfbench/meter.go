package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"renaming/internal/stats"
)

// Runtime counters read around each operation. runtime/metrics reads
// do not stop the world, unlike runtime.ReadMemStats.
const (
	mAllocBytes = iota
	mAllocObjects
	mGCCycles
	mGCCPU
	mTotalCPU
	numRuntimeMetrics
)

var runtimeMetricNames = [numRuntimeMetrics]string{
	mAllocBytes:   "/gc/heap/allocs:bytes",
	mAllocObjects: "/gc/heap/allocs:objects",
	mGCCycles:     "/gc/cycles/total:gc-cycles",
	mGCCPU:        "/cpu/classes/gc/total:cpu-seconds",
	mTotalCPU:     "/cpu/classes/total:cpu-seconds",
}

// runtimeSnap is one reading of the runtime counters plus the process
// CPU time (user + system, all threads).
type runtimeSnap struct {
	vals [numRuntimeMetrics]float64
	cpu  time.Duration
}

func readRuntime() runtimeSnap {
	var samples [numRuntimeMetrics]metrics.Sample
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var s runtimeSnap
	for i, smp := range samples {
		switch smp.Value.Kind() {
		case metrics.KindUint64:
			s.vals[i] = float64(smp.Value.Uint64())
		case metrics.KindFloat64:
			s.vals[i] = smp.Value.Float64()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// opTotals accumulates the cost of the measured operations only; work
// the benchmark does between operations (input generation, oracle
// checks) falls outside the brackets.
type opTotals struct {
	ops       int
	wall      time.Duration
	cpu       time.Duration
	runtime   [numRuntimeMetrics]float64 // counter deltas
	latencies []float64                  // per-operation wall, ms
	heap      *heapSampler               // nil: peaks not tracked
	peaks     []float64                  // per-operation peak heap, MB
}

// measure runs op once and adds its wall time, CPU time and runtime
// counter deltas to the totals.
func (t *opTotals) measure(op func() error) error {
	if t.heap != nil {
		t.heap.restart()
	}
	before := readRuntime()
	start := time.Now()
	err := op()
	wall := time.Since(start)
	after := readRuntime()
	if t.heap != nil {
		t.peaks = append(t.peaks, t.heap.peakMB())
	}
	t.ops++
	t.wall += wall
	t.cpu += after.cpu - before.cpu
	for i := range t.runtime {
		t.runtime[i] += after.vals[i] - before.vals[i]
	}
	t.latencies = append(t.latencies, float64(wall)/float64(time.Millisecond))
	return err
}

func (t *opTotals) perOp(v float64) float64 { return v / float64(max(1, t.ops)) }

// runtimeLayer reports the runtime rows of the per-layer ledger.
func (t *opTotals) runtimeLayer(r *report) {
	gcFrac := 0.0
	if cpu := t.runtime[mTotalCPU]; cpu > 0 {
		gcFrac = t.runtime[mGCCPU] / cpu
	}
	r.set("runtime.gc_cpu_frac", "fraction", gcFrac)
	r.set("runtime.gc_cycles_per_op", "count", t.perOp(t.runtime[mGCCycles]))
	r.set("runtime.allocs_per_op", "count", t.perOp(t.runtime[mAllocObjects]))
}

// heapSampler tracks the peak heap in use (live objects plus those not
// yet swept) during each operation: a goroutine samples it every 5 ms,
// and measure reads it at both ends of the operation.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// restart begins a new operation's peak.
func (h *heapSampler) restart() {
	h.peak.Store(0)
	h.observe()
}

// peakMB returns the current operation's peak so far, in MB.
func (h *heapSampler) peakMB() float64 {
	h.observe()
	return float64(h.peak.Load()) / (1 << 20)
}

// close ends the sampling goroutine and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	h.done.Wait()
}

// simWork totals the measured operations' deterministic counters.
type simWork struct {
	names      int64 // names assigned
	msgs       int64 // billed simulated messages
	honestBits int64
	nodes      int64 // per-node base of honestBits: n, or the join batch
	rounds     int64
}

func (w *simWork) add(names, msgs, honestBits, nodes int64, rounds int) {
	w.names += names
	w.msgs += msgs
	w.honestBits += honestBits
	w.nodes += nodes
	w.rounds += int64(rounds)
}

// endToEnd reports the user-facing metrics of the measured operations;
// tail is the latency percentile the workload reports.
func endToEnd(r *report, t *opTotals, w simWork, setup, tail float64) {
	secs := t.wall.Seconds()
	r.set("setup_s", "s", setup)
	r.set("run_s", "s", t.perOp(secs))
	r.set("op_ms_p50", "ms", stats.Quantile(t.latencies, 0.50))
	r.set("op_ms_tail", "ms", stats.Quantile(t.latencies, tail))
	r.set("names_per_s", "1/s", float64(w.names)/secs)
	r.set("sim_msgs_per_s", "1/s", float64(w.msgs)/secs)
	r.set("cpu_s_per_op", "s", t.perOp(t.cpu.Seconds()))
	r.set("alloc_mb_per_op", "MB", t.perOp(t.runtime[mAllocBytes]/(1<<20)))
	r.set("peak_heap_mb", "MB", stats.Quantile(t.peaks, 0.5))
	r.set("honest_bits_per_node", "bit", float64(w.honestBits)/float64(max(1, w.nodes)))
	r.set("rounds_per_op", "count", t.perOp(float64(w.rounds)))
}

// digester hashes each operation's deterministic counters in operation
// order, so two runs (or a traced and an untraced run) can be shown to
// have executed the same simulated work.
type digester struct {
	h   hash.Hash64
	ops int
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

// add folds one operation: its rounds, billed messages, honest bits and
// the decided names (one entry per link or joiner, -1 when undecided).
func (d *digester) add(rounds int, msgs, honestBits int64, names []int) {
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		d.h.Write(buf[:])
	}
	put(int64(rounds))
	put(msgs)
	put(honestBits)
	put(int64(len(names)))
	for _, v := range names {
		put(int64(v))
	}
	d.ops++
}

func (d *digester) String() string { return fmt.Sprintf("%016x/%d", d.h.Sum64(), d.ops) }
