// Command perfbench is the repository's whole-run benchmark. It runs one
// workload as a closed loop from a single caller, checks every operation
// against the campaign oracles, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of standard
// output. See README.md in this directory for the metric definitions.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload crash-killer --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are the command-line inputs shared by every workload.
type params struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

type workload struct {
	name string
	run  func(p params, out *report) error
}

var workloads = []workload{
	{"crash-killer", runCrashKiller},
	{"byz-split", runByzSplit},
	{"churn-1m", runChurn},
}

func main() {
	name := flag.String("workload", "", "workload name: crash-killer, byz-split or churn-1m")
	seed := flag.Int64("seed", 1, "workload seed; every run seed and trace derives from it")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}
	out := newReport(wl.name, p)
	if err := wl.run(p, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if err := out.emit(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their oracle\n", out.failed, out.attempted)
		os.Exit(1)
	}
}

// report collects one workload run's outcome and prints it.
type report struct {
	workload  string
	params    params
	attempted int
	failed    int
	listLen   int
	digest    string
	metrics   map[string]metric
	info      []string
}

func newReport(name string, p params) *report {
	return &report{workload: name, params: p, metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check records one operation's oracle verdict; problems go to standard
// error so the result line stays the last line of standard output.
func (r *report) check(op string, problems []string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %s\n", r.workload, op, p)
	}
}

func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// emit prints the host stamp, the simulated-statistics digest, any
// notes, and the result line last.
func (r *report) emit(f *os.File) error {
	w := bufio.NewWriter(f)
	host := map[string]any{
		"workload":   r.workload,
		"seed":       r.params.seed,
		"seconds":    r.params.seconds.Seconds(),
		"trace":      r.params.trace,
		"seedList":   r.listLen,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", hb)
	fmt.Fprintf(w, "digest %s %s\n", r.workload, r.digest)
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rb)
	return w.Flush()
}

// cpuModel reads the processor name from /proc/cpuinfo where the host
// has one, so results from different machines are never silently mixed.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
