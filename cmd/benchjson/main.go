// Command benchjson converts `go test -bench` output into a structured
// JSON artifact while passing the text through unchanged, so it drops
// into a pipe:
//
//	go test -run '^$' -bench Byz -benchmem . | benchjson -out BENCH_byz.json
//
// Each Benchmark line becomes one record with the benchmark name (the
// -P GOMAXPROCS suffix stripped), the iteration count, and every
// value/unit metric pair (ns/op, B/op, allocs/op, and custom
// b.ReportMetric units such as msgs/round). `make bench` uses it to
// refresh the BENCH_*.json before/after ledgers, selecting each ledger's
// benchmarks by name (-match) or by package (-pkg, read from the
// `pkg:` header go test prints above each package's benchmarks):
//
//	go test -run '^$' -bench . ./... | benchjson -pkg renaming/internal/sim -out BENCH_sim.json
//
// With -compare the command instead diffs two ledgers and exits
// non-zero on regressions, turning the BENCH_*.json artifacts into an
// enforceable gate (`make bench-check`):
//
//	benchjson -tol 0.25 -compare BENCH_crash.json new_crash.json
//
// A regression is a gated metric (ns/op, peakHeap-MB — where higher is
// worse) exceeding the old value by more than the tolerance, or a
// benchmark present in the old ledger but missing from the new one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Record is one parsed Benchmark line.
type Record struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("out", "", "write the JSON artifact to this path (stdout keeps the raw text)")
	match := flag.String("match", "", "only record benchmarks whose name contains this substring")
	pkgs := flag.String("pkg", "", "only record benchmarks of these comma-separated import paths")
	compare := flag.String("compare", "", "compare this old ledger against the new ledger given as the positional argument; exit non-zero on regressions")
	tol := flag.Float64("tol", 0.25, "relative tolerance for -compare: new > old*(1+tol) on a gated metric is a regression")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			return fmt.Errorf("-compare needs exactly one positional argument (the new ledger), got %d", flag.NArg())
		}
		return compareLedgers(*compare, flag.Arg(0), *tol)
	}

	wantPkg := map[string]bool{}
	for _, p := range strings.Split(*pkgs, ",") {
		if p != "" {
			wantPkg[p] = true
		}
	}
	var records []Record
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if len(wantPkg) > 0 && !wantPkg[pkg] {
			continue
		}
		rec, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if *match != "" && !strings.Contains(rec.Name, *match) {
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Benchmarks []Record `json:"benchmarks"`
	}{records}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(records), *out)
	return nil
}

// gatedMetrics are the metrics -compare treats as regression gates:
// higher is strictly worse. Throughput-style metrics (msgs/round) and
// noisy allocation counters stay informational.
var gatedMetrics = []string{"ns/op", "peakHeap-MB"}

// ledger mirrors the -out artifact shape.
type ledger struct {
	Benchmarks []Record `json:"benchmarks"`
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// compareLedgers diffs newPath against oldPath and returns an error —
// hence a non-zero exit — when a gated metric regressed beyond tol or a
// previously-recorded benchmark disappeared. Improvements and new
// benchmarks are reported but never fail the gate.
func compareLedgers(oldPath, newPath string, tol float64) error {
	oldL, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	newL, err := readLedger(newPath)
	if err != nil {
		return err
	}
	byName := make(map[string]Record, len(newL.Benchmarks))
	for _, rec := range newL.Benchmarks {
		byName[rec.Name] = rec
	}
	var regressions []string
	for _, old := range oldL.Benchmarks {
		cur, ok := byName[old.Name]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in %s but missing from %s", old.Name, oldPath, newPath))
			continue
		}
		delete(byName, old.Name)
		for _, metric := range gatedMetrics {
			was, hasOld := old.Metrics[metric]
			now, hasNew := cur.Metrics[metric]
			if !hasOld {
				continue
			}
			if !hasNew {
				regressions = append(regressions, fmt.Sprintf("%s: metric %s missing from %s", old.Name, metric, newPath))
				continue
			}
			delta := 0.0
			if was != 0 {
				delta = (now - was) / was
			}
			status := "ok"
			if now > was*(1+tol) {
				status = "REGRESSION"
				regressions = append(regressions,
					fmt.Sprintf("%s: %s %.4g -> %.4g (%+.1f%%, tolerance %.0f%%)", old.Name, metric, was, now, delta*100, tol*100))
			}
			fmt.Printf("%-60s %-12s %12.4g %12.4g %+8.1f%%  %s\n", old.Name, metric, was, now, delta*100, status)
		}
	}
	fresh := make([]string, 0, len(byName))
	for name := range byName {
		fresh = append(fresh, name)
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Printf("%-60s (new benchmark, no baseline)\n", name)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) vs %s:\n  %s", len(regressions), oldPath, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("benchjson: %s within %.0f%% of %s\n", newPath, tol*100, oldPath)
	return nil
}

// parseBenchLine parses the standard bench output shape
//
//	BenchmarkName/sub-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// returning ok=false for any other line (headers, PASS/ok, failures).
func parseBenchLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Record{}, false
	}
	rec := Record{Name: fields[0], Metrics: make(map[string]float64)}
	if i := strings.LastIndex(rec.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(rec.Name[i+1:]); err == nil {
			rec.Name, rec.Procs = rec.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		rec.Metrics[fields[i+1]] = value
	}
	return rec, true
}
