// Package fleet routes DUEL queries across replica groups of serve nodes,
// surviving the death of a whole replica the way internal/serve survives
// the death of a single read.
//
// The serving layer's resilience machinery (retry budgets, health-driven
// brownout and quarantine) is all per-target on one
// node: when the target itself dies — the process is gone, the core file is
// corrupt, the substrate wedges permanently — every query against it fails,
// however politely. The fleet layer lifts the same rate-based health
// machinery one level up: a logical target is backed by a *replica group*
// of N substrates (fakedbg clones of one image, or an executable plus its
// core dump behind coredbg), and the router fronts the serve.Server nodes
// that host them:
//
//   - Read routing. A read-only query goes to the replica the health
//     machinery currently trusts most: replicas sort by health state
//     (healthy before browned-out before quarantined, via the serve layer's
//     rate-based score), and round-robin rotation spreads load across the
//     equally healthy. Killed replicas are skipped outright.
//   - Failover. When the chosen replica fails for a reason that condemns
//     the REPLICA rather than the query — ErrQuarantined, a memio retry
//     schedule spent to exhaustion, or an administrative kill canceling
//     the attempt mid-stream — the router re-runs the query on
//     the next replica in routing order, under a bounded per-query failover
//     budget. Values the caller already received are suppressed on the
//     re-run (replicas answer identically by construction; the scrubber
//     polices that construction), so a query that fails over mid-stream
//     still delivers every value exactly once. Exhausting the budget, or
//     the group, surfaces typed ErrNoReplicaAvailable wrapping the last
//     replica error.
//   - Write fan-out. A mutating query must leave the replicas identical, so
//     it either runs on every live replica (write-all, with per-replica
//     outcome accounting — a replica that refused or failed the write is a
//     recorded skew, not a silent divergence) or fast-fails before touching
//     anything when the group contains a read-only replica that could never
//     apply it (ErrReadOnlyReplica, via the capability plumbing).
//   - Relative debugging. Diff runs one query against two chosen replicas
//     and reports the first point their symbolic value streams diverge —
//     the DUCT idea (PAPERS.md) of debugging one program run against
//     another, applied across replicas. A background scrubber (scrub.go)
//     reuses the same comparison at a low rate as a continuous integrity
//     check, and feeds divergence into the serve layer's health score so a
//     silently-corrupted replica is quarantined, not just a slow one.
//
// The router owns no servers: callers build the serve nodes (with whatever
// per-node worker pools and fault injectors they want), register
// replicas, and keep responsibility for Shutdown. Close stops only the
// scrubber.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/memio"
	"duel/internal/serve"
)

// Typed routing errors. Callers match them with errors.Is.
var (
	// ErrUnknownGroup: no replica group registered under that name.
	ErrUnknownGroup = errors.New("fleet: unknown replica group")
	// ErrNoReplicaAvailable: the query exhausted its failover budget or the
	// group's live replicas without any of them serving it. It wraps the
	// last replica error when there was one.
	ErrNoReplicaAvailable = errors.New("fleet: no replica available")
	// ErrReplicaKilled cancels attempts in flight against an
	// administratively killed replica; the router treats it as a failover
	// trigger, never surfacing it to callers with healthy replicas left.
	ErrReplicaKilled = errors.New("fleet: replica killed")
	// ErrReadOnlyReplica refuses a mutating query against a group with an
	// immutable member: applying the write to the writable subset would
	// diverge the group by construction. It wraps dbgif.ErrReadOnlyTarget.
	ErrReadOnlyReplica = fmt.Errorf("fleet: mutating query refused, group has a read-only replica: %w", dbgif.ErrReadOnlyTarget)
	// ErrDiffMutating refuses relative debugging of a mutating query:
	// running it once per side would write the target twice.
	ErrDiffMutating = errors.New("fleet: diff refused: query mutates the target")
)

// Fleet defaults.
const (
	// DefaultFailoverBudget bounds the extra replica attempts one read query
	// may spend after its first: enough to ride out one sick replica plus
	// one unlucky race, small enough that a query can never sweep a large
	// group and multiply a correlated failure.
	DefaultFailoverBudget = 2
	// DefaultDiffLimit caps the values Diff collects per side, bounding the
	// memory a divergence report can cost against an unbounded generator.
	DefaultDiffLimit = 1 << 16
)

// Config tunes a Router.
type Config struct {
	// FailoverBudget is the maximum number of extra replica attempts a read
	// query may spend after its first. 0 means DefaultFailoverBudget; a
	// negative value disables failover entirely.
	FailoverBudget int
	// DiffLimit caps the values Diff (and the scrubber) collects per side.
	// 0 means DefaultDiffLimit.
	DiffLimit int
	// Scrub tunes the background divergence scrubber (scrub.go). Off unless
	// Scrub.Enabled is set.
	Scrub ScrubConfig
}

// Replica names one member of a replica group: a target registered on a
// serve node. Several replicas may share a node (distinct target names) or
// each own one; the router does not care.
type Replica struct {
	// Name labels the replica in reports and stats. Empty defaults to
	// "<group>/<index>".
	Name string
	// Server is the serve node hosting the replica.
	Server *serve.Server
	// Target is the replica's target name on that node.
	Target string
}

// Stats is a snapshot of the router's fleet-level counters.
type Stats struct {
	Admitted  int64 // queries routed (a group was found and a path chosen)
	Completed int64 // queries some replica actually served to a final outcome
	Failed    int64 // completed queries whose final outcome was an error

	Failovers int64 // attempts re-routed to another replica
	NoReplica int64 // queries that exhausted the budget or the group

	WriteFanouts     int64 // mutating queries fanned out write-all
	WriteSkews       int64 // fan-outs where replicas disagreed on the outcome
	ReadOnlyRefusals int64 // mutating queries refused with ErrReadOnlyReplica

	Divergences int64 // scrub comparisons that caught replicas disagreeing
	ScrubRuns   int64 // scrub comparisons executed
}

type fleetStats struct {
	admitted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	failovers atomic.Int64
	noReplica atomic.Int64

	writeFanouts     atomic.Int64
	writeSkews       atomic.Int64
	readOnlyRefusals atomic.Int64

	divergences atomic.Int64
	scrubRuns   atomic.Int64
}

// Router fronts replica groups. Create it with New, add groups with
// AddGroup, submit queries with Eval/SubmitStream, and stop the scrubber
// with Close. The underlying serve.Servers stay the caller's to shut down.
type Router struct {
	cfg Config

	mu     sync.RWMutex
	groups map[string]*group

	stats   fleetStats
	lastDiv atomic.Pointer[DiffReport]

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
	closeOnce sync.Once
}

// group is one logical target and its replicas. The replica set is fixed at
// AddGroup; rotation and scrub cursors are the only mutable state.
type group struct {
	name         string
	reps         []*replica
	scrubQueries []string

	rr        atomic.Uint64 // read routing rotation among equally ranked replicas
	scrubQIdx atomic.Uint64 // scrub query rotation
	scrubPair atomic.Uint64 // scrub pair rotation around the replica ring
}

// replica is one registered replica plus its kill switch. Killing a replica
// removes it from routing AND cancels attempts already in flight against it
// through killCtx — that cancellation is what turns a mid-stream death into
// a failover instead of a hang.
type replica struct {
	name   string
	srv    *serve.Server
	target string

	killMu  sync.Mutex
	killed  bool
	killCtx context.Context
	kill    context.CancelFunc

	divergences atomic.Int64 // scrub divergences attributed to this replica
}

// isKilled reports the administrative kill state.
func (rep *replica) isKilled() bool {
	rep.killMu.Lock()
	defer rep.killMu.Unlock()
	return rep.killed
}

// killContext returns the context canceled by an administrative kill, or
// nil when the replica is already dead.
func (rep *replica) killContext() context.Context {
	rep.killMu.Lock()
	defer rep.killMu.Unlock()
	if rep.killed {
		return nil
	}
	return rep.killCtx
}

// New builds a router. The scrubber starts with the first AddGroup when
// Scrub.Enabled is set.
func New(cfg Config) *Router {
	if cfg.FailoverBudget == 0 {
		cfg.FailoverBudget = DefaultFailoverBudget
	}
	if cfg.FailoverBudget < 0 {
		cfg.FailoverBudget = 0
	}
	if cfg.DiffLimit <= 0 {
		cfg.DiffLimit = DefaultDiffLimit
	}
	if cfg.Scrub.Enabled {
		if cfg.Scrub.Interval <= 0 {
			cfg.Scrub.Interval = DefaultScrubInterval
		}
		if cfg.Scrub.Penalty <= 0 {
			cfg.Scrub.Penalty = DefaultScrubPenalty
		}
	}
	r := &Router{
		cfg:       cfg,
		groups:    make(map[string]*group),
		scrubStop: make(chan struct{}),
	}
	if cfg.Scrub.Enabled {
		r.scrubWG.Add(1)
		go r.scrubLoop()
	}
	return r
}

// AddGroup registers a replica group under name. scrubQueries, when given,
// are the read-only queries the background scrubber rotates through to
// cross-check the group's replicas; a group without them is routed but
// never scrubbed. Registering a name twice replaces the old group.
func (r *Router) AddGroup(name string, reps []Replica, scrubQueries ...string) error {
	if len(reps) == 0 {
		return fmt.Errorf("fleet: group %q needs at least one replica", name)
	}
	g := &group{name: name, scrubQueries: scrubQueries}
	for i, spec := range reps {
		if spec.Server == nil {
			return fmt.Errorf("fleet: group %q replica %d has no server", name, i)
		}
		rep := &replica{name: spec.Name, srv: spec.Server, target: spec.Target}
		if rep.name == "" {
			rep.name = fmt.Sprintf("%s/%d", name, i)
		}
		rep.killCtx, rep.kill = context.WithCancel(context.Background())
		g.reps = append(g.reps, rep)
	}
	r.mu.Lock()
	r.groups[name] = g
	r.mu.Unlock()
	return nil
}

// lookup resolves a registered group.
func (r *Router) lookup(name string) (*group, error) {
	r.mu.RLock()
	g := r.groups[name]
	r.mu.RUnlock()
	if g == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGroup, name)
	}
	return g, nil
}

// replicaAt resolves a group member by index.
func (r *Router) replicaAt(groupName string, i int) (*group, *replica, error) {
	g, err := r.lookup(groupName)
	if err != nil {
		return nil, nil, err
	}
	if i < 0 || i >= len(g.reps) {
		return nil, nil, fmt.Errorf("fleet: group %q has no replica %d (have %d)", groupName, i, len(g.reps))
	}
	return g, g.reps[i], nil
}

// KillReplica administratively kills replica i of the named group: routing
// skips it immediately and attempts in flight against it are canceled with
// cause ErrReplicaKilled, which the read path treats as a failover trigger.
func (r *Router) KillReplica(groupName string, i int) error {
	_, rep, err := r.replicaAt(groupName, i)
	if err != nil {
		return err
	}
	rep.killMu.Lock()
	if !rep.killed {
		rep.killed = true
		rep.kill()
	}
	rep.killMu.Unlock()
	return nil
}

// ReviveReplica returns a killed replica to routing with a fresh kill
// context. The substrate's state is the caller's problem — a revived
// replica that missed write fan-outs is exactly what the scrubber exists to
// catch.
func (r *Router) ReviveReplica(groupName string, i int) error {
	_, rep, err := r.replicaAt(groupName, i)
	if err != nil {
		return err
	}
	rep.killMu.Lock()
	if rep.killed {
		rep.killed = false
		rep.killCtx, rep.kill = context.WithCancel(context.Background())
	}
	rep.killMu.Unlock()
	return nil
}

// ReplicaStatus is one replica's routing-relevant state.
type ReplicaStatus struct {
	Name        string
	Target      string
	Killed      bool
	Health      serve.HealthState
	Score       float64
	Divergences int64 // scrub divergences attributed to it
}

// Replicas reports the named group's members in registration order.
func (r *Router) Replicas(groupName string) ([]ReplicaStatus, error) {
	g, err := r.lookup(groupName)
	if err != nil {
		return nil, err
	}
	out := make([]ReplicaStatus, len(g.reps))
	for i, rep := range g.reps {
		st, score, herr := rep.srv.TargetHealthScore(rep.target)
		if herr != nil {
			st, score = serve.TargetHealthy, 0
		}
		out[i] = ReplicaStatus{
			Name:        rep.name,
			Target:      rep.target,
			Killed:      rep.isKilled(),
			Health:      st,
			Score:       score,
			Divergences: rep.divergences.Load(),
		}
	}
	return out, nil
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	return Stats{
		Admitted:         r.stats.admitted.Load(),
		Completed:        r.stats.completed.Load(),
		Failed:           r.stats.failed.Load(),
		Failovers:        r.stats.failovers.Load(),
		NoReplica:        r.stats.noReplica.Load(),
		WriteFanouts:     r.stats.writeFanouts.Load(),
		WriteSkews:       r.stats.writeSkews.Load(),
		ReadOnlyRefusals: r.stats.readOnlyRefusals.Load(),
		Divergences:      r.stats.divergences.Load(),
		ScrubRuns:        r.stats.scrubRuns.Load(),
	}
}

// LastDivergence returns the most recent divergence the scrubber (or Diff)
// recorded, nil when none has occurred.
func (r *Router) LastDivergence() *DiffReport {
	return r.lastDiv.Load()
}

// Close stops the background scrubber and waits for it. It does not touch
// the serve nodes — they belong to the caller. Safe to call more than once.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.scrubStop) })
	r.scrubWG.Wait()
}

// Eval routes src against the named group, collecting all produced values.
func (r *Router) Eval(ctx context.Context, groupName, src string) ([]duel.Result, error) {
	return r.EvalWith(ctx, groupName, src, serve.SubmitOptions{})
}

// EvalWith is Eval with per-query serving options (the deadline, applied
// by whichever replica serves the query).
func (r *Router) EvalWith(ctx context.Context, groupName, src string, opt serve.SubmitOptions) ([]duel.Result, error) {
	var mu sync.Mutex
	var out []duel.Result
	err := r.SubmitStream(ctx, groupName, src, opt, func(v serve.StreamValue) error {
		mu.Lock()
		out = append(out, duel.Result{Sym: v.Sym, Text: v.Text})
		mu.Unlock()
		return nil
	})
	return out, err
}

// SubmitStream routes one query: read-only queries take the failover path
// (healthiest replica first, re-routing on replica-condemning failures with
// exactly-once value delivery), mutating queries fan out write-all. emit is
// called from the serving side; its error aborts the evaluation and
// blocking in it backpressures the evaluator, exactly as in
// serve.SubmitStream. Seq numbers stay contiguous across a failover.
//
// The query is parsed once, on the replica a read is routed to first; the
// path follows the query's own write verdict, never a replica's lock mode,
// and that replica's attempt evaluates the same AST. Any other replica —
// a failover, the rest of a write fan-out — parses the source itself.
func (r *Router) SubmitStream(ctx context.Context, groupName, src string, opt serve.SubmitOptions, emit func(serve.StreamValue) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g, err := r.lookup(groupName)
	if err != nil {
		return err
	}
	order := g.routeOrder()
	var q *serve.Query
	if len(order) > 0 {
		q = prepare(order[0], src)
	}
	r.stats.admitted.Add(1)
	if q != nil && q.Mutating {
		return r.writeAll(ctx, g, src, q, opt, emit)
	}
	return r.readFailover(ctx, g, order, src, q, opt, emit)
}

// prepare parses src on rep's node. A parse error gives nil, which routes
// the query as a read: the serving node then surfaces the real error with
// full accounting, and a query that cannot parse cannot write.
func prepare(rep *replica, src string) *serve.Query {
	q, err := rep.srv.Prepare(rep.target, src)
	if err != nil {
		return nil
	}
	return q
}

// failoverable reports whether an attempt error condemns the replica rather
// than the query: a quarantine fast-fail (the node itself says the target
// is sick), a memio retry schedule spent to exhaustion (the substrate is
// faulting beyond what retries absorb), and an administrative kill
// canceling the attempt. Everything else — parse and type errors, the
// paper's garbage-pointer faults, step limits, the CALLER's own
// cancellation or deadline — is the query's verdict and follows it to the
// caller unchanged.
func failoverable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, serve.ErrQuarantined) ||
		memio.IsRetryExhausted(err) ||
		errors.Is(err, ErrReplicaKilled)
}

// routeOrder ranks the group's live replicas for one read query: by health
// state first (healthy, browned-out, quarantined — the serve layer's
// rate-based score drives those states), descending score within the
// trailing states, and round-robin rotation across the leading
// equally-healthy prefix so a fleet of clean replicas shares the load
// instead of serializing on member zero.
func (g *group) routeOrder() []*replica {
	type cand struct {
		rep   *replica
		state serve.HealthState
		score float64
	}
	cands := make([]cand, 0, len(g.reps))
	for _, rep := range g.reps {
		if rep.isKilled() {
			continue
		}
		st, score, err := rep.srv.TargetHealthScore(rep.target)
		if err != nil {
			st, score = serve.TargetHealthy, 0
		}
		cands = append(cands, cand{rep, st, score})
	}
	if len(cands) == 0 {
		return nil
	}
	best := cands[0].state
	for _, c := range cands[1:] {
		best = min(best, c.state)
	}
	slices.SortStableFunc(cands, func(a, b cand) int {
		if a.state != b.state {
			return cmp.Compare(a.state, b.state)
		}
		if a.state == best {
			// The leading state class keeps registration order; rotation
			// below spreads load across it. (Scores inside the healthy
			// class jitter near 1.0 — sorting on them would pin traffic to
			// whichever replica got lucky last.)
			return 0
		}
		return cmp.Compare(b.score, a.score)
	})
	lead := 1
	for lead < len(cands) && cands[lead].state == cands[0].state {
		lead++
	}
	start := 0
	if lead > 1 {
		start = int(g.rr.Add(1)-1) % lead
	}
	out := make([]*replica, 0, len(cands))
	for i := 0; i < lead; i++ {
		out = append(out, cands[(start+i)%lead].rep)
	}
	for i := lead; i < len(cands); i++ {
		out = append(out, cands[i].rep)
	}
	return out
}

// readFailover drives a read query across the routing order under the
// failover budget. emitted counts values already delivered to the caller;
// a re-run suppresses that prefix so mid-stream failover stays
// exactly-once.
func (r *Router) readFailover(ctx context.Context, g *group, order []*replica, src string, q *serve.Query, opt serve.SubmitOptions, emit func(serve.StreamValue) error) error {
	emitted := 0
	attempts := 0
	var lastErr error
	for _, rep := range order {
		if attempts > r.cfg.FailoverBudget {
			break
		}
		if attempts > 0 {
			r.stats.failovers.Add(1)
		}
		attempts++
		err := r.runOn(ctx, rep, src, q, opt, &emitted, emit)
		if !failoverable(err) {
			r.stats.completed.Add(1)
			if err != nil {
				r.stats.failed.Add(1)
			}
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller is gone; stop burning replicas on its behalf.
			break
		}
	}
	r.stats.noReplica.Add(1)
	if lastErr != nil {
		return fmt.Errorf("fleet: group %q: %w after %d attempts: %w", g.name, ErrNoReplicaAvailable, attempts, lastErr)
	}
	return fmt.Errorf("fleet: group %q: %w", g.name, ErrNoReplicaAvailable)
}

// runOn runs one attempt against one replica, composing the caller's
// context with the replica's kill switch and suppressing the
// already-delivered value prefix on re-runs. Attempts are strictly
// sequential per query, so emitted needs no synchronization beyond
// SubmitStream's own happens-before edges. q, when non-nil, is src
// prepared on some replica: the one it was prepared on evaluates its AST,
// any other parses src (serve.SubmitPrepared).
func (r *Router) runOn(ctx context.Context, rep *replica, src string, q *serve.Query, opt serve.SubmitOptions, emitted *int, emit func(serve.StreamValue) error) error {
	kctx := rep.killContext()
	if kctx == nil {
		return &core.CanceledError{Cause: ErrReplicaKilled}
	}
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	stop := context.AfterFunc(kctx, func() { cancel(ErrReplicaKilled) })
	defer stop()
	seen := 0
	deliver := func(v serve.StreamValue) error {
		seen++
		if seen <= *emitted {
			// A previous attempt delivered this value before its replica
			// died; swallow the replay so the caller sees it exactly once.
			return nil
		}
		v.Seq = *emitted
		*emitted++
		return emit(v)
	}
	if q != nil {
		return rep.srv.SubmitPrepared(cctx, rep.target, q, opt, deliver)
	}
	return rep.srv.SubmitStream(cctx, rep.target, src, opt, deliver)
}

// ReplicaOutcome is one replica's result of a write fan-out.
type ReplicaOutcome struct {
	Replica string
	Err     error
}

// FanoutError reports a write fan-out where at least one replica failed,
// carrying every replica's outcome so the caller can see exactly which
// members applied the write. It unwraps to the first non-nil outcome error.
type FanoutError struct {
	Group    string
	Outcomes []ReplicaOutcome
}

func (e *FanoutError) Error() string {
	failed := 0
	var first error
	for _, o := range e.Outcomes {
		if o.Err != nil {
			failed++
			if first == nil {
				first = o.Err
			}
		}
	}
	return fmt.Sprintf("fleet: write fan-out to group %q: %d/%d replicas failed (first: %v)",
		e.Group, failed, len(e.Outcomes), first)
}

func (e *FanoutError) Unwrap() error {
	for _, o := range e.Outcomes {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}

// writeAll runs a mutating query on every live replica. Capability
// fast-fail comes first: a group with a read-only member refuses the write
// before ANY replica applies it — applying it to the writable subset would
// diverge the group by construction. Then the fan-out runs concurrently
// (the replicas are independent substrates on independent nodes); the first
// replica's values stream to the caller, the rest are discarded, and every
// replica's outcome is recorded. Any failure surfaces as *FanoutError and
// counts as a write skew when the replicas disagreed.
func (r *Router) writeAll(ctx context.Context, g *group, src string, q *serve.Query, opt serve.SubmitOptions, emit func(serve.StreamValue) error) error {
	var live []*replica
	for _, rep := range g.reps {
		if !rep.isKilled() {
			live = append(live, rep)
		}
	}
	if len(live) == 0 {
		r.stats.noReplica.Add(1)
		return fmt.Errorf("fleet: group %q: %w", g.name, ErrNoReplicaAvailable)
	}
	for _, rep := range live {
		if ro, err := rep.srv.TargetReadOnly(rep.target); err == nil && ro {
			r.stats.readOnlyRefusals.Add(1)
			return fmt.Errorf("fleet: group %q replica %q: %w", g.name, rep.name, ErrReadOnlyReplica)
		}
	}
	r.stats.writeFanouts.Add(1)

	outcomes := make([]ReplicaOutcome, len(live))
	var wg sync.WaitGroup
	for i, rep := range live {
		wg.Add(1)
		go func(i int, rep *replica) {
			defer wg.Done()
			member := func(serve.StreamValue) error { return nil }
			if i == 0 {
				member = emit // one replica's transcript reaches the caller
			}
			emitted := 0
			outcomes[i] = ReplicaOutcome{
				Replica: rep.name,
				Err:     r.runOn(ctx, rep, src, q, opt, &emitted, member),
			}
		}(i, rep)
	}
	wg.Wait()

	ok, failed := 0, 0
	for _, o := range outcomes {
		if o.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	r.stats.completed.Add(1)
	if failed == 0 {
		return nil
	}
	r.stats.failed.Add(1)
	if ok > 0 {
		// Some replicas applied the write, some did not: the group is now
		// skewed until the scrubber (or an operator) reconciles it.
		r.stats.writeSkews.Add(1)
	}
	return &FanoutError{Group: g.name, Outcomes: outcomes}
}

// Scrubbing defaults (see scrub.go for the loop itself).
const (
	// DefaultScrubInterval spaces scrub comparisons: one pair of one group
	// per tick, deliberately slow enough to cost the fleet nothing
	// measurable.
	DefaultScrubInterval = 100 * time.Millisecond
	// DefaultScrubPenalty is the number of synthetic infra-failure samples
	// one attributed divergence feeds into the culprit's health score. At
	// the serve layer's default EWMA window, roughly three consecutive
	// divergent scrubs drive a replica from healthy into quarantine.
	DefaultScrubPenalty = 4
)

// ScrubConfig tunes the background divergence scrubber.
type ScrubConfig struct {
	// Enabled turns the scrubber on.
	Enabled bool
	// Interval is the time between scrub comparisons. 0 means
	// DefaultScrubInterval.
	Interval time.Duration
	// Penalty is the health-sample weight of one attributed divergence.
	// 0 means DefaultScrubPenalty.
	Penalty int
}
