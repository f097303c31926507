// Command benchjson runs the repository's benchmark suite and records the
// results as a machine-readable JSON artifact, BENCH_<date>.json, suitable
// for CI upload and cross-commit performance tracking:
//
//	benchjson                         # default suite, BENCH_YYYY-MM-DD.json
//	benchjson -bench T3Scan -out -    # one family, JSON to stdout
//	benchjson -benchtime 1x           # CI smoke: one iteration per benchmark
//
// It shells out to `go test -bench` and parses the standard benchmark output
// lines generically, so every ReportMetric a benchmark emits (hostreads/op,
// hostbytes/op, ...) lands in the metrics map alongside ns/op, B/op and
// allocs/op.
//
// Compare mode diffs two artifacts instead of running anything:
//
//	benchjson -compare old.json new.json
//	benchjson -compare -metric queries/s -threshold 0.20 old.json new.json
//	benchjson -compare -gate allocs/op=0.10 -gate ns/op=0.25 old.json new.json
//
// It reports the chosen metric for every benchmark present in both files
// and exits non-zero when any regresses by more than the threshold — the
// CI gate that keeps the serving layer's throughput honest across commits.
// A baseline benchmark the new report lacks is listed as MISSING, so a
// deleted or renamed benchmark shows instead of silently dropping out; it
// does not fail the gate.
// Each repeatable -gate metric=threshold adds one more gated metric with
// its own threshold on top of the primary -metric/-threshold pair, so one
// compare run can hold throughput AND the allocation diet simultaneously.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line: its name, iteration count, and every
// (value, unit) metric pair the harness printed for it.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level artifact schema.
type Report struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	Bench     string   `json:"bench"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// gate is one metric=threshold pair of the repeatable -gate flag.
type gate struct {
	metric    string
	threshold float64
}

// gateList implements flag.Value for -gate.
type gateList []gate

func (g *gateList) String() string {
	var parts []string
	for _, e := range *g {
		parts = append(parts, fmt.Sprintf("%s=%g", e.metric, e.threshold))
	}
	return strings.Join(parts, ",")
}

func (g *gateList) Set(s string) error {
	eq := strings.LastIndexByte(s, '=')
	if eq <= 0 {
		return fmt.Errorf("want metric=threshold, got %q", s)
	}
	th, err := strconv.ParseFloat(s[eq+1:], 64)
	if err != nil || th <= 0 {
		return fmt.Errorf("bad threshold in %q (want a positive fraction)", s)
	}
	*g = append(*g, gate{metric: s[:eq], threshold: th})
	return nil
}

func main() {
	bench := flag.String("bench", "T1Catalog|T3Scan|T3ListWalk|ServeThroughput|ServeOverload|ServeStream|FleetFailover", "benchmark name pattern (go test -bench)")
	benchtime := flag.String("benchtime", "", "per-benchmark time or count (go test -benchtime)")
	out := flag.String("out", "", "output path; default BENCH_<date>.json, \"-\" for stdout")
	pkg := flag.String("pkg", ".", "package to benchmark")
	compare := flag.Bool("compare", false, "diff two artifacts (old.json new.json) instead of benchmarking")
	metric := flag.String("metric", "queries/s", "metric to diff in -compare mode (\"ns/op\" or any metrics-map key)")
	threshold := flag.Float64("threshold", 0.20, "fractional regression that fails -compare mode")
	var gates gateList
	flag.Var(&gates, "gate", "extra metric=threshold gate for -compare mode (repeatable, e.g. -gate allocs/op=0.10)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two artifacts: old.json new.json")
			os.Exit(2)
		}
		code := compareReports(flag.Arg(0), flag.Arg(1), *metric, *threshold)
		for _, g := range gates {
			if c := compareReports(flag.Arg(0), flag.Arg(1), g.metric, g.threshold); c > code {
				code = c
			}
		}
		os.Exit(code)
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", *pkg}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: go test:", err)
		os.Exit(1)
	}

	report := Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: goVersion(),
		Bench:     *bench,
		Benchtime: *benchtime,
		Results:   parseBench(buf.String()),
	}
	if len(report.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results matched", *bench)
		os.Exit(1)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + report.Date + ".json"
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if path == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(path, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(report.Results), path)
}

// compareReports diffs one metric across two benchmark artifacts and
// returns the process exit code: 0 when every benchmark present in both
// stayed within threshold, 1 on a regression or when the files share no
// benchmark reporting the metric. Baseline rows missing from the new
// report are printed only.
func compareReports(oldPath, newPath, metric string, threshold float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}

	// Direction: throughput-style rates ("queries/s") regress downward,
	// cost-style metrics ("ns/op", "B/op", "allocs/op") regress upward.
	lowerIsBetter := strings.HasSuffix(metric, "/op")

	oldVals := map[string]float64{}
	for _, r := range oldRep.Results {
		if v, ok := metricValue(r, metric); ok {
			oldVals[r.Name] = v
		}
	}
	compared, regressed := 0, 0
	fmt.Printf("%-52s %14s %14s %8s\n", "benchmark ("+metric+")", oldRep.Date, newRep.Date, "delta")
	for _, r := range newRep.Results {
		nv, ok := metricValue(r, metric)
		if !ok {
			continue
		}
		ov, ok := oldVals[r.Name]
		if !ok || ov == 0 {
			continue
		}
		compared++
		delta := nv/ov - 1
		mark := ""
		bad := delta < -threshold
		if lowerIsBetter {
			bad = delta > threshold
		}
		if bad {
			regressed++
			mark = "  REGRESSION"
		}
		fmt.Printf("%-52s %14.1f %14.1f %+7.1f%%%s\n", r.Name, ov, nv, delta*100, mark)
	}
	newNames := map[string]bool{}
	for _, r := range newRep.Results {
		newNames[r.Name] = true
	}
	for _, r := range oldRep.Results {
		if ov, ok := metricValue(r, metric); ok && !newNames[r.Name] {
			fmt.Printf("%-52s %14.1f %14s\n", r.Name, ov, "MISSING")
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark in both %s and %s reports %q\n", oldPath, newPath, metric)
		return 1
	}
	if regressed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d/%d benchmarks regressed beyond %.0f%% on %s\n", regressed, compared, threshold*100, metric)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks within %.0f%% on %s\n", compared, threshold*100, metric)
	return 0
}

func loadReport(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// metricValue pulls one metric out of a result; "ns/op" lives in its own
// field, everything else in the metrics map.
func metricValue(r Result, metric string) (float64, bool) {
	if metric == "ns/op" {
		return r.NsPerOp, r.NsPerOp != 0
	}
	v, ok := r.Metrics[metric]
	return v, ok
}

// parseBench extracts benchmark lines from go test output. A line looks
// like:
//
//	BenchmarkT3Scan/push/N=1000/cache=false-8   1234  987 ns/op  1000 hostreads/op  64 B/op  3 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parseBench(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{
			Name:       strings.TrimSuffix(f[0], cpuSuffix(f[0])),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			if f[i+1] == "ns/op" {
				r.NsPerOp = v
			} else {
				r.Metrics[f[i+1]] = v
			}
		}
		results = append(results, r)
	}
	return results
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS marker of a benchmark
// name, or "" when absent.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

func goVersion() string {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
