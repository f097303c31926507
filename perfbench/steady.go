package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs each workload of BENCHMARK.json (or only the named one)
// runs times, each time in a fresh process with the next seed, and prints
// every end-to-end metric's quartiles and spread — the distance between the
// quartiles as a share of the median — next to its bound. A spread under a
// third of the bound is marked steady.
func steadiness(only string, runs int, seed int64, seconds float64) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if only != "" {
		names = []string{only}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-20s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range names {
		vals := map[string][]float64{}
		for i := 0; i < runs; i++ {
			res, err := runChild(exe, name, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed+int64(i), err)
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
		}
		metrics := make([]string, 0, len(vals))
		for k := range vals {
			metrics = append(metrics, k)
		}
		sort.Strings(metrics)
		for _, k := range metrics {
			q1, q2, q3 := quartiles(vals[k])
			spread := (q3 - q1) / q2
			verdict := "steady"
			if b := bounds[k]; spread > b {
				verdict = "TOO NOISY"
			} else if spread > b/3 {
				verdict = "within bound"
			}
			fmt.Printf("%-15s %-20s %12.5g %12.5g %12.5g %8.4f %6.3f  %s\n", name, k, q1, q2, q3, spread, bounds[k], verdict)
		}
	}
	return nil
}

// runChild runs one untraced measurement in a child process and parses its
// result line.
func runChild(exe, name string, seed int64, seconds float64) (result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, err
	}
	if !res.Correct {
		return res, fmt.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
	}
	return res, nil
}
