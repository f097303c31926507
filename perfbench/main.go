// Command perfbench is the repository's benchmark: four closed-loop
// workloads that drive DUEL from one process, check every output against an
// oracle that does not come from the code under test, and print the
// end-to-end metrics (or, with --trace 1, the per-layer ledger) as one JSON
// object on the last line of standard output. README.md in this directory
// describes the workloads, the metrics and how to read the traced output.
//
//	bash perfbench/run.sh --workload fleet-rw --seed 7 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's images and query streams are generated from")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced single-client ledger instead of the end-to-end measurement")
	steady := flag.Int("steady", 0, "steadiness report: run every workload this many times, one seed each, and print each metric's spread next to its bound")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*name, *steady, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	run := time.Duration(*seconds * float64(time.Second))

	clients := w.clients
	if *trace == 1 {
		clients = 1
	}
	printJSON(map[string]any{"host": hostRecord(), "run": map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace, "clients": clients,
	}})

	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, run)
	} else {
		res, err = measuredRun(w, *seed, run)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printJSON writes v as one line of standard output.
func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
