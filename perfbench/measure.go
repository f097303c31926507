package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run builds its workload, half before the
// measured run and half after it, setupGap apart. setup_s is the fastest
// build: a build is deterministic work, so a slower one is the host or the
// collector getting in its way, and on a shared host that lasts from a
// fraction of a second to minutes. Spreading the builds over the run finds
// the host's quiet moments. Every build but the one the run uses is torn
// down again.
const (
	setupReps = 24
	setupGap  = 250 * time.Millisecond
)

// client is one closed-loop caller. A client's fields are written only by
// its own goroutine while the run is live.
type client struct {
	id    int
	rng   *rand.Rand
	epoch time.Time // start of the measured run
	// lat holds read latencies (every request, outside the fleet
	// workloads); writeLat holds fleet-rw's write latencies; first holds,
	// per query that emitted a value, the time from submit to that value;
	// done holds, per request, the values it delivered.
	lat, writeLat, first, done []sample
	values                     int64 // values delivered to the client
	requests, failed           int64
	firstErr                   error
	want                       []want // the current request's expected values
	buf                        []byte // scratch for oracle comparisons
}

// sample is one observation stamped with when it was made.
type sample struct {
	at time.Duration // since the start of the run
	v  time.Duration
}

func newClient(id int, seed int64) *client {
	return &client{id: id, rng: rand.New(rand.NewSource(seed*7919 + int64(id))), epoch: time.Now()}
}

// observe appends d, stamped now, to xs.
func (c *client) observe(xs *[]sample, d time.Duration) {
	*xs = append(*xs, sample{time.Since(c.epoch), d})
}

// fail records a failed request.
func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// drive runs the clients in a closed loop until d has passed.
func drive(inst instance, clients []*client, d time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.epoch = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.requests++
				v := c.values
				if err := inst.request(c); err != nil {
					c.fail(err)
				}
				c.observe(&c.done, time.Duration(c.values-v))
			}
		}(c)
	}
	wg.Wait()
}

// buildTimed builds w n times, setupGap apart, and returns the last
// instance and the build times. The heap is collected before each build so
// each one starts from the same state.
func buildTimed(w *workload, seed int64, n int) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
			inst = nil
			time.Sleep(setupGap)
		}
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = w.build(seed, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, times, nil
}

// measuredRun is the untraced end-to-end measurement of one workload.
func measuredRun(w *workload, seed int64, d time.Duration) (result, error) {
	inst, setup, err := buildTimed(w, seed, setupReps/2)
	if err != nil {
		return result{}, err
	}
	clients := make([]*client, w.clients)
	for i := range clients {
		clients[i] = newClient(i, seed)
	}
	before := inst.counters()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drive(inst, clients, d)
	runtime.ReadMemStats(&m1)
	after := inst.counters()

	res := tally(clients)
	// Rates and latencies are taken per window and the median window is
	// reported, so a burst of load from outside the benchmark that covers
	// less than half the run does not move them.
	win := d / windows
	all := func(f func(*client) []sample) []sample {
		var out []sample
		for _, c := range clients {
			out = append(out, f(c)...)
		}
		return out
	}
	lat, first, done := all(func(c *client) []sample { return c.lat }),
		all(func(c *client) []sample { return c.first }), all(func(c *client) []sample { return c.done })
	for _, c := range clients {
		c.lat, c.first, c.writeLat, c.done = nil, nil, nil, nil
	}
	ms := func(q float64) func([]sample) float64 {
		return func(xs []sample) float64 { return float64(percentile(values(xs), q)) / 1e6 }
	}
	// A window's rate counts what completed after its first completion, over
	// the time from that completion to its last.
	perSecond := func(count bool) func([]sample) float64 {
		return func(xs []sample) float64 {
			if len(xs) < 2 {
				return 0
			}
			n := float64(len(xs) - 1)
			if !count {
				n = float64(sum(values(xs[1:])))
			}
			return n / (xs[len(xs)-1].at - xs[0].at).Seconds()
		}
	}
	res.Metrics = map[string]metric{
		"queries_per_s":      {windowMedian(done, win, perSecond(true)), "1/s"},
		"values_per_s":       {windowMedian(done, win, perSecond(false)), "1/s"},
		"latency_p50_ms":     {windowMedian(lat, win, ms(0.50)), "ms"},
		"latency_p90_ms":     {windowMedian(lat, win, ms(0.90)), "ms"},
		"first_value_p50_ms": {windowMedian(first, win, ms(0.50)), "ms"},
		"alloc_kb_per_query": {float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(res.Attempted, 1)), "kB"},
	}
	lat, first, done = nil, nil, nil
	// Live heap is read with the program state still in place but the
	// benchmark's own samples dropped, so it does not grow with throughput.
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	res.Metrics["heap_live_mb"] = metric{float64(mh.HeapAlloc) / (1 << 20), "MB"}

	// The serve and fleet counters exist in the program anyway: print their
	// deltas beside the result.
	printJSON(map[string]any{"counters": after.sub(before)})
	if err := inst.close(); err != nil {
		return result{}, err
	}
	inst, more, err := buildTimed(w, seed, setupReps/2)
	if err != nil {
		return result{}, err
	}
	if err := inst.close(); err != nil {
		return result{}, err
	}
	res.Metrics["setup_s"] = metric{slices.Min(append(setup, more...)), "s"}
	return res, nil
}

// tally sums the clients' request outcomes.
func tally(clients []*client) result {
	var res result
	for _, c := range clients {
		res.Attempted += c.requests
		res.Failed += c.failed
		if c.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %d failed, first: %v\n", c.id, c.failed, c.firstErr)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// windows is the number of windows a measured run is cut into.
const windows = 20

// windowMedian groups samples into windows of length w by the time they
// were taken, applies f to each window's samples in time order, and returns
// the median. Samples taken after the last whole window are ignored.
func windowMedian(samples []sample, w time.Duration, f func([]sample) float64) float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	byWin := make([][]sample, windows)
	for _, s := range samples {
		if i := int(s.at / w); i < windows {
			byWin[i] = append(byWin[i], s)
		}
	}
	var vals []float64
	for _, xs := range byWin {
		if len(xs) > 0 {
			vals = append(vals, f(xs))
		}
	}
	return median(vals)
}

// values returns the observed values of samples.
func values(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.v
	}
	return out
}

func sum(xs []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks; it sorts xs in place. Empty input gives 0.
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + time.Duration(frac*float64(xs[lo+1]-xs[lo]))
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third quartile
// of xs by the method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones computed from the JSON results.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), n-1)
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// hostRecord describes the machine and toolchain a result was measured on.
func hostRecord() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
	}
}

// cpuModel reads the processor's model name where the OS exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// spec is the part of BENCHMARK.json the steadiness report reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSpec loads BENCHMARK.json from the working directory.
func readSpec() (spec, error) {
	var sp spec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return sp, nil
}
