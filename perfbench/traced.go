package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/duel/parser"
	"duel/internal/duel/value"
	"duel/internal/fleet"
	"duel/internal/memio"
	"duel/internal/serve"
)

// tracedInstance brackets every request of an instance as one traced
// request.
type tracedInstance struct {
	instance
	tr *tracer
}

func (t tracedInstance) request(c *client) error {
	t.tr.startRequest()
	defer t.tr.endRequest()
	return t.instance.request(c)
}

// readTimer sums the serve queue and evaluation time of the reads. The
// traced run has one client, so the Stats delta across a request is that
// request's own; writes are left out because a fanned-out write spends its
// queue and evaluation time on every replica at once.
type readTimer struct {
	instance
	nanos int64
}

func (r *readTimer) request(c *client) error {
	before, reads := r.counters(), len(c.lat)
	err := r.instance.request(c)
	if len(c.lat) > reads {
		d := r.counters().sub(before)
		r.nanos += d.Serve.QueueNanos + d.Serve.EvalNanos
	}
	return err
}

// tracedRun produces the per-layer ledger of one workload with one client:
// half the run untraced (the baseline for the tracing overhead, and the
// serve and fleet counters), half traced, then the layer ladder.
func tracedRun(w *workload, seed int64, d time.Duration) (result, error) {
	m := map[string]metric{}
	us := func(name string, ns float64) { m[name] = metric{ns / 1e3, "us"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }

	plain, err := w.build(seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	pc := newClient(0, seed)
	before := plain.counters()
	rt := &readTimer{instance: plain}
	drive(rt, []*client{pc}, d/2)
	delta := plain.counters().sub(before)
	if err := plain.close(); err != nil {
		return result{}, err
	}
	n := float64(max(pc.requests, 1))
	sv, fl := delta.Serve, delta.Fleet
	us("serve.queue_us", float64(sv.QueueNanos)/n)
	us("serve.eval_us", float64(sv.EvalNanos)/n)
	us("serve.overhead_us", float64(sum(values(pc.lat))-time.Duration(rt.nanos))/float64(max(len(pc.lat), 1)))
	count("serve.locks_per_query", float64(sv.TargetLocks)/n)
	count("serve.retried_per_query", float64(sv.Retried)/n)
	count("serve.quarantines", float64(sv.Quarantined))
	count("serve.brownouts", float64(sv.Brownouts))
	count("fleet.failovers_per_query", float64(fl.Failovers)/n)
	count("fleet.write_skews", float64(fl.WriteSkews))
	count("fleet.no_replica", float64(fl.NoReplica))
	us("fleet.write_p50_us", float64(percentile(values(pc.writeLat), 0.5)))
	plainP50 := percentile(values(pc.lat), 0.5)

	tr := newTracer()
	inst, err := w.build(seed, tr)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced setup: %w", w.name, err)
	}
	tc := newClient(0, seed)
	c0 := tr.sessionCounters()
	r0, b0, f0, l0 := tr.reads.Load(), tr.readBytes.Load(), tr.faults.Load(), tr.lookups.Load()
	drive(tracedInstance{inst, tr}, []*client{tc}, d/2)
	c1 := tr.sessionCounters()
	r1, b1, f1, l1 := tr.reads.Load(), tr.readBytes.Load(), tr.faults.Load(), tr.lookups.Load()
	if err := inst.close(); err != nil {
		return result{}, err
	}
	n = float64(max(tc.requests, 1))
	for ly := layer(0); ly < numLayers; ly++ {
		us(layerNames[ly]+".self_us", float64(tr.self[ly])/n)
	}
	us("core.eval_us", float64(tr.total[layerCore])/n)
	count("core.values_per_query", float64(c1.Values-c0.Values)/n)
	count("core.applies_per_query", float64(c1.Applies-c0.Applies)/n)
	count("core.lookups_per_query", float64(c1.Lookups-c0.Lookups)/n)
	count("value.symops_per_query", float64(c1.SymOps-c0.SymOps)/n)
	count("value.symops_per_emitted_value", float64(c1.SymOps-c0.SymOps)/float64(max(tc.values, 1)))
	count("memio.target_reads_per_query", float64(c1.TargetReads-c0.TargetReads)/n)
	count("memio.host_reads_per_query", float64(c1.HostReads-c0.HostReads)/n)
	count("memio.retries_per_query", float64(c1.MemRetries-c0.MemRetries)/n)
	count("substrate.reads_per_query", float64(r1-r0)/n)
	m["substrate.bytes_per_query"] = metric{float64(b1-b0) / n, "B"}
	count("substrate.faults_per_query", float64(f1-f0)/n)
	count("substrate.lookups_per_query", float64(l1-l0)/n)
	count("trace.spans_per_query", float64(tr.nspans)/n)
	tracedP50 := percentile(values(tc.lat), 0.5)
	m["trace.overhead_p50_pct"] = metric{100 * float64(tracedP50-plainP50) / float64(max(plainP50, 1)), "%"}

	lad, err := ladder(w, seed)
	if err != nil {
		return result{}, fmt.Errorf("%s: ladder: %w", w.name, err)
	}
	for k, v := range lad {
		us(k, v)
	}

	res := tally([]*client{pc, tc})
	m["run.failed_share"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "share"}
	res.Metrics = m
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeFile(path); err != nil {
		return result{}, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// readRecorder records the reads a query makes of its substrate.
type readRecorder struct {
	dbgif.Debugger
	reads [][2]uint64
}

func (r *readRecorder) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	r.reads = append(r.reads, [2]uint64{addr, uint64(n)})
	return r.Debugger.GetTargetBytes(addr, n)
}

// ladder times the workload's representative query at each layer boundary,
// from raw substrate reads of the same bytes up to the fleet router, and
// returns the nanoseconds each layer adds.
func ladder(w *workload, seed int64) (map[string]float64, error) {
	d, q, err := w.ladder(seed)
	if err != nil {
		return nil, err
	}
	opts := duel.DefaultOptions()
	rec := &readRecorder{Debugger: d}
	recSes, err := duel.NewSession(rec, opts)
	if err != nil {
		return nil, err
	}
	discard := func(duel.Result) error { return nil }
	if err := recSes.EvalFunc(q, discard); err != nil {
		return nil, err
	}
	ses, err := duel.NewSession(d, opts)
	if err != nil {
		return nil, err
	}
	replay := func(via dbgif.Debugger) func() error {
		return func() error {
			for _, r := range rec.reads {
				if _, err := via.GetTargetBytes(r[0], int(r[1])); err != nil {
					return err
				}
			}
			return nil
		}
	}
	node, err := parser.Parse(q, d)
	if err != nil {
		return nil, err
	}
	backend, err := core.GetBackend(opts.Backend)
	if err != nil {
		return nil, err
	}
	backendEval := func(symbolic bool) func() error {
		eo := opts.Eval
		eo.Symbolic = symbolic
		env := core.NewEnv(d, eo)
		return func() error { return backend.Eval(env, node, func(value.Value) error { return nil }) }
	}
	srv := serve.New(serve.Config{Workers: serveWorkers})
	srv.Register("ladder", d)
	router := fleet.New(fleet.Config{})
	defer func() {
		router.Close()
		_ = shutdown(srv) // the ladder's result is already decided
	}()
	if err := router.AddGroup("ladder", []fleet.Replica{{Server: srv, Target: "ladder"}}); err != nil {
		return nil, err
	}
	discardStream := func(serve.StreamValue) error { return nil }
	ctx := context.Background()

	steps := []struct {
		name string
		f    func() error
	}{
		{"raw", replay(d)},
		{"memio", replay(memio.New(d, memio.Config{}))},
		{"eval_nosym", backendEval(false)},
		{"eval_sym", backendEval(true)},
		{"parse", func() error { _, err := parser.Parse(q, d); return err }},
		{"session", func() error { return ses.EvalFunc(q, discard) }},
		{"serve", func() error { return srv.SubmitStream(ctx, "ladder", q, serve.SubmitOptions{}, discardStream) }},
		{"fleet", func() error { return router.SubmitStream(ctx, "ladder", q, serve.SubmitOptions{}, discardStream) }},
	}
	// Rounds interleave the steps, so a change in host speed during the
	// ladder shifts every step alike instead of one step's difference.
	samples := make([][]float64, len(steps))
	for _, s := range steps {
		if err := s.f(); err != nil { // warm-up
			return nil, fmt.Errorf("%s step: %w", s.name, err)
		}
	}
	for start := time.Now(); len(samples[0]) < ladderMinRounds || (len(samples[0]) < ladderMaxRounds && time.Since(start) < ladderBudget); {
		for i, s := range steps {
			t := time.Now()
			if err := s.f(); err != nil {
				return nil, fmt.Errorf("%s step: %w", s.name, err)
			}
			samples[i] = append(samples[i], float64(time.Since(t)))
		}
	}
	t := map[string]float64{}
	for i, s := range steps {
		t[s.name] = median(samples[i])
	}
	return map[string]float64{
		"substrate.read_us": t["raw"],
		"memio.ladder_us":   t["memio"] - t["raw"],
		"core.ladder_us":    t["eval_nosym"] - t["memio"],
		"value.symbolic_us": t["eval_sym"] - t["eval_nosym"],
		"parser.parse_us":   t["parse"],
		"session.render_us": t["session"] - t["parse"] - t["eval_sym"],
		"serve.ladder_us":   t["serve"] - t["session"],
		"fleet.route_us":    t["fleet"] - t["serve"],
	}, nil
}

// The ladder runs its steps in rounds for about ladderBudget, and at least
// ladderMinRounds and at most ladderMaxRounds times.
const (
	ladderBudget    = 1500 * time.Millisecond
	ladderMinRounds = 9
	ladderMaxRounds = 5000
)
