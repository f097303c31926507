// Package serve is a concurrent DUEL evaluation service: many queries
// multiplexed over pooled sessions against shared debug targets.
//
// Hanson's revisited machine-independent debugger (PAPERS.md) recasts the
// debugger as a client/server system over the same narrow nub interface this
// repository's dbgif.Debugger reproduces; once the debugger is a server, one
// slow, sick or wedged target must not take the service down with it. The
// serving layer composes the robustness primitives built in the layers
// below — core.EvalContext's cancellation watchdog, memio's interruptible
// retry/interrupt machinery, faultdbg's reproducible sickness — into a
// server with explicit operational behavior:
//
//   - Admission control. A bounded worker pool pulls queries from a bounded
//     queue; when the queue is full the server sheds the query immediately
//     with ErrOverloaded instead of queueing unboundedly and deadlocking
//     under overload.
//   - Per-target circuit breakers. Repeated infrastructure failures
//     (unretryable transient faults, wedged calls, evaluation timeouts)
//     trip the target's breaker; while open, queries against it fail fast
//     with ErrCircuitOpen instead of tying workers up on a sick target, and
//     a half-open probe closes the breaker once the target recovers.
//   - Per-query governance. Every evaluation runs under the session's
//     MaxSteps/Timeout limits composed with the caller's context: canceling
//     the context cancels the evaluator at its next step check AND
//     interrupts the memory chain, so even a query wedged inside a hanging
//     target call unwinds promptly.
//   - Graceful drain. Shutdown stops admissions, lets admitted queries
//     finish, and past the caller's deadline revokes what is still running;
//     it leaks no goroutines either way.
//   - Deadline propagation. A per-query deadline (SubmitOptions.Deadline or
//     the caller's context) rides the job through the queue: a query whose
//     deadline lapses while queued is shed with ErrDeadlineExceeded before
//     a worker acquires a session or the target lock, and one that makes it
//     out evaluates under a context carrying the deadline, so expiry
//     mid-eval cancels the evaluator AND interrupts the memory chain.
//   - Retry budgets. Transient infrastructure failures — a memio retry
//     schedule spent to exhaustion, a breaker half-open rejection — are
//     retried once at the serve layer under a per-target token-bucket
//     budget (retry.go): isolated faults heal invisibly, correlated storms
//     drain the bucket and degrade to single attempts instead of doubling
//     the load on a sick target.
//   - Target health: brownout before quarantine. A per-target score fed by
//     infra-failure and latency signals generalizes the breaker
//     (health.go): a degraded target first browns out — mutating queries
//     shed with ErrBrownout while read-only ones keep flowing under the
//     shared read lock — and only a truly sick one quarantines, failing
//     fast with ErrQuarantined until a periodic probe completes cleanly.
//
// Sessions are pooled per target: a duel.Session evaluates one expression
// at a time (its name-resolution stack and step budget are per-evaluation
// state), so parallelism across queries comes from a pool of sessions, each
// with its own memio.Accessor — which also keeps one query's interrupt from
// aborting its neighbors. The target below the pool has no synchronization
// of its own, so the server classifies each query by AST walk: queries that
// only read target memory share the target under a read lock, while
// mutating queries (assignments, ++/--, target calls, declarations, interned
// string literals) get it exclusively.
//
// The read path is built to scale with the worker count. DUEL traffic is
// read-dominated — "x[..n] >? v" walks memory without writing it — so
// everything a read-only query touches per-query is either worker-local or
// lock-free:
//
//   - Counters are atomic (no stats mutex on the hot path).
//   - Each worker keeps session affinity with the last target it served, so
//     a steady stream against one target never touches the pool mutex.
//   - Post-write cache invalidation is epoch-based: a mutating query bumps
//     the target's write epoch and each session lazily flushes its own page
//     cache the next time it observes a new epoch, instead of the writer
//     walking and flushing every pooled accessor while readers wait.
//   - The breaker's closed-state admit/record path is atomic.
//   - Jobs (and their one-shot done channels) are recycled through a
//     sync.Pool, so the submit→worker→submit round-trip is two direct
//     channel handoffs with no per-query allocation of its own.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/memio"
)

// Typed admission errors. Callers match them with errors.Is.
var (
	// ErrOverloaded: the queue was full; the query was shed un-run.
	ErrOverloaded = errors.New("serve: overloaded, query shed")
	// ErrDraining: the server is shutting down and admits nothing new.
	ErrDraining = errors.New("serve: draining, query refused")
	// ErrCircuitOpen: the target's circuit breaker is open; the query
	// failed fast without touching the target.
	ErrCircuitOpen = errors.New("serve: circuit open, failing fast")
	// ErrUnknownTarget: no target registered under that name.
	ErrUnknownTarget = errors.New("serve: unknown target")
	// ErrDeadlineExceeded: the query's deadline lapsed while it sat in the
	// queue; it was shed before touching a session or the target lock. It
	// matches errors.Is(err, context.DeadlineExceeded) too, so callers that
	// only know about contexts classify it correctly.
	ErrDeadlineExceeded = fmt.Errorf("serve: deadline exceeded while queued: %w", context.DeadlineExceeded)
	// ErrQuarantined: the target's health score collapsed; everything but
	// periodic probes fails fast until a probe completes cleanly.
	ErrQuarantined = errors.New("serve: target quarantined, failing fast")
	// ErrBrownout: the target is degraded; mutating queries are shed while
	// read-only ones keep being served.
	ErrBrownout = errors.New("serve: target browned out, mutating query shed")
)

// Serving defaults, chosen so a zero Config yields a usable server: enough
// workers to exploit the host, a queue deep enough to absorb bursts but
// shallow enough that overload sheds within one scheduling quantum, and
// finite per-query safety limits (an unbounded serve session would let one
// runaway "e.." query pin a worker forever).
const (
	DefaultQueueFactor = 2                // QueueDepth = factor × Workers
	DefaultMaxSteps    = 1 << 22          // per-query step budget
	DefaultTimeout     = 30 * time.Second // per-query wall-clock budget
)

// Config tunes a Server.
type Config struct {
	// Workers is the number of evaluation workers. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queries admitted but not yet running. 0 means
	// DefaultQueueFactor × Workers; beyond it, queries shed with
	// ErrOverloaded.
	QueueDepth int
	// Session is the option template for pooled sessions. A zero value
	// means duel.DefaultOptions; a partially set value keeps every field
	// the caller set and only has its unset fields defaulted (exactly
	// like duel.NewSession); zero MaxSteps/Timeout get the serving
	// defaults either way, so serve sessions are always bounded.
	Session duel.Options
	// Breaker tunes the per-target circuit breakers.
	Breaker BreakerConfig
	// Retry tunes the serve-layer retry budget (see retry.go). The zero
	// value enables retries with the defaults; set Retry.Disabled to opt
	// out.
	Retry RetryConfig
	// Health tunes per-target health tracking with brownout and quarantine
	// (see health.go). The zero value enables tracking with the defaults;
	// set Health.Disabled to opt out.
	Health HealthConfig

	// now overrides the serving clock (breaker cooldowns, queue-deadline
	// checks, health probe cadence) in tests.
	now func() time.Time
}

// Stats is a snapshot of a Server's admission and outcome counters.
// Breaker counters aggregate over all registered targets. Snapshots are
// internally consistent: Completed never exceeds Admitted.
type Stats struct {
	Admitted  int64 // queries accepted into the queue
	Completed int64 // admitted queries that ran to completion (ok or error)
	Failed    int64 // completed queries whose evaluation returned an error
	Shed      int64 // refused with ErrOverloaded
	Drained   int64 // refused with ErrDraining, or canceled while queued
	FastFails int64 // refused with ErrCircuitOpen
	Trips     int64 // breaker trips

	DeadlineExpired int64 // shed in queue with ErrDeadlineExceeded
	Retried         int64 // serve-layer retry attempts issued under the budget
	Quarantined     int64 // target transitions into quarantine
	QuarantineFails int64 // queries refused with ErrQuarantined
	Brownouts       int64 // target transitions into brownout
	BrownoutSheds   int64 // mutating queries shed with ErrBrownout
	Divergences     int64 // divergence penalties applied via PenalizeTarget

	StreamQueries int64 // queries submitted through SubmitStream
	StreamValues  int64 // values delivered through SubmitStream emits
	TargetLocks   int64 // target-lock acquisitions (shared or exclusive), all targets

	QueueNanos int64 // total queue wait of completed attempts, for mean latency
	EvalNanos  int64 // total evaluation time of completed attempts
}

// liveStats is the server's hot counter set. Plain atomics instead of a
// mutex-guarded struct: the two bumps per query (admit, complete) were the
// first serializer the mutex profile named on the read path. A retried
// query bumps admitted/completed exactly once — the extra attempt is
// accounted only in the retried counter — so Completed can never outrun
// Admitted however many attempts a query spawned.
type liveStats struct {
	admitted  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	shed      atomic.Int64
	drained   atomic.Int64

	deadlineExpired atomic.Int64
	retried         atomic.Int64

	streamQueries atomic.Int64
	streamValues  atomic.Int64

	queueNanos atomic.Int64
	evalNanos  atomic.Int64
}

type serverState int

const (
	stateServing serverState = iota
	stateDraining
)

// Server is the concurrent evaluation service. Create it with New, add
// targets with Register, then call Eval/Exec from any number of
// goroutines. Shut it down exactly once with Shutdown.
type Server struct {
	cfg Config

	// admitMu arbitrates admission against drain: every enqueue holds it
	// for reading across the state check AND the queue send, and Shutdown
	// flips the state holding it for writing — so once Shutdown returns
	// from that flip, no query can slip into the queue behind the drain.
	admitMu sync.RWMutex
	state   serverState
	queue   chan *job

	targetMu sync.RWMutex
	targets  map[string]*targetState

	wg      sync.WaitGroup
	drainCh chan struct{} // closed when Shutdown begins

	// hardCtx cancels in-flight evaluations when the drain deadline
	// passes; every evaluation runs under it.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	outMu sync.Mutex // serializes Exec flushes to shared io.Writers

	stats liveStats
}

// targetState is one registered target: its session pool, breaker, and the
// read/write lock that keeps mutating queries exclusive.
type targetState struct {
	name    string
	factory func() (*duel.Session, error)
	brk     *breaker
	health  *health
	retry   *retryBudget

	// rw lets read-only queries share the target; mutating queries take it
	// exclusively (the substrate below the sessions is unsynchronized).
	// Sharded per worker so a read-dominated stream — all surviving traffic
	// under brownout — does not serialize on one reader cache line.
	rw *shardedRW

	// locks counts lock acquisitions (one per shared or exclusive take).
	locks atomic.Int64

	// cls is the lazily built classification session: Prepare (for the
	// fleet router) parses and read/write-classifies a query before its
	// path is chosen, without borrowing a pooled evaluation session.
	// Guarded by clsMu.
	clsMu sync.Mutex
	cls   *duel.Session

	// epoch counts mutating queries. A mutating query bumps it while it
	// still holds the write lock; every session records the epoch its page
	// cache was last valid at and flushes itself lazily when the two
	// disagree (see pooledSession.sync). This replaces the old write-side
	// flushAll walk over every pooled accessor, which both stretched the
	// exclusive section and made registration-order state (the "all" list)
	// part of the hot path.
	epoch atomic.Uint64

	poolMu sync.Mutex
	idle   []*pooledSession
}

// pooledSession is one pooled session plus the target write epoch its page
// cache last observed. Exactly one query uses a pooledSession at a time
// (it is either in the idle pool, held as a worker's affinity session, or
// running), so epoch needs no synchronization of its own.
type pooledSession struct {
	ses   *duel.Session
	epoch uint64
}

// sync brings the session's page cache up to the target's current write
// epoch. Called with the target's lock held (shared or exclusive), so the
// epoch cannot advance concurrently.
func (ps *pooledSession) sync(t *targetState) {
	if e := t.epoch.Load(); ps.epoch != e {
		ps.ses.Mem().Flush()
		ps.epoch = e
	}
}

// affinity is a worker's cached (target, session) pair: the session it used
// most recently, kept out of the shared pool so a steady stream of queries
// against one target runs entirely worker-locally. Only the owning worker
// goroutine touches it.
type affinity struct {
	t  *targetState
	ps *pooledSession
}

// job is one attempt of an admitted query. Jobs are recycled through
// jobPool; the done channel is created once per job object and reused (it
// is always drained by exactly one submitter before the job is returned to
// the pool). ran/mutated are written by the worker before the done send and
// read by the submitter after the done receive — the channel's
// happens-before edge is their synchronization.
type job struct {
	ctx         context.Context
	t           *targetState
	src         string
	emit        func(duel.Result) error
	deadline    time.Time // zero = none; checked again at pickup
	probe       bool      // this attempt is its target's half-open breaker probe
	healthProbe bool      // this attempt is its target's quarantine probe
	counted     bool      // this attempt carries the query's Admitted count
	ran         bool      // worker → submitter: the evaluation actually ran
	mutated     bool      // worker → submitter: classified as mutating
	done        chan error

	// node is src's AST when the query was prepared on this target's
	// classification session; nil means the worker parses src.
	node *ast.Node

	// enqueuedAt stamps admission; the worker derives the queue wait from
	// it and reports the evaluation time back in evalDur. Both ride the
	// done channel's happens-before edge like ran/mutated.
	enqueuedAt time.Time
	queueWait  time.Duration
	evalDur    time.Duration
}

var jobPool = sync.Pool{New: func() any { return &job{done: make(chan error, 1)} }}

// putJob clears the job's references and returns it to the pool.
func putJob(j *job) {
	j.ctx, j.t, j.src, j.emit, j.node = nil, nil, "", nil, nil
	j.deadline = time.Time{}
	j.probe, j.healthProbe, j.counted, j.ran, j.mutated = false, false, false, false, false
	j.enqueuedAt = time.Time{}
	j.queueWait, j.evalDur = 0, 0
	jobPool.Put(j)
}

// New starts a server with cfg's worker pool running. It performs no I/O;
// register targets before submitting queries.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueFactor * cfg.Workers
	}
	// Normalize field-by-field (a wholly zero Session means the defaults;
	// a partial one keeps every field the caller set) — overwriting the
	// whole struct here used to wipe caller-set fields like MaxOutput
	// whenever Backend was left empty.
	cfg.Session = duel.NormalizeOptions(cfg.Session)
	if cfg.Session.Eval.MaxSteps == 0 {
		cfg.Session.Eval.MaxSteps = DefaultMaxSteps
	}
	if cfg.Session.Eval.Timeout == 0 {
		cfg.Session.Eval.Timeout = DefaultTimeout
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		targets: make(map[string]*targetState),
		drainCh: make(chan struct{}),
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// Register adds a target under name, serving it with sessions built from
// the server's session options. Registering a name twice replaces the old
// target (its pooled sessions are dropped; in-flight queries finish against
// the old one).
func (s *Server) Register(name string, d dbgif.Debugger) {
	opts := s.cfg.Session
	s.RegisterFactory(name, func() (*duel.Session, error) {
		return duel.NewSession(d, opts)
	})
}

// RegisterFactory adds a target whose pooled sessions come from factory —
// for callers that want a private middleware chain (e.g. a fault injector)
// per session, so one session's Interrupt cannot cross-talk into another's.
func (s *Server) RegisterFactory(name string, factory func() (*duel.Session, error)) {
	t := &targetState{
		name:    name,
		factory: factory,
		brk:     newBreaker(s.cfg.Breaker, s.cfg.now),
		health:  newHealth(s.cfg.Health, s.cfg.now),
		retry:   newRetryBudget(s.cfg.Retry),
		rw:      newShardedRW(s.cfg.Workers),
	}
	s.targetMu.Lock()
	s.targets[name] = t
	s.targetMu.Unlock()
}

// lookup resolves a registered target.
func (s *Server) lookup(name string) (*targetState, error) {
	s.targetMu.RLock()
	t := s.targets[name]
	s.targetMu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, name)
	}
	return t, nil
}

// BreakerState reports the named target's breaker state.
func (s *Server) BreakerState(name string) (BreakerState, error) {
	t, err := s.lookup(name)
	if err != nil {
		return BreakerClosed, err
	}
	st, _, _ := t.brk.snapshot()
	return st, nil
}

// TargetHealth reports the named target's health state.
func (s *Server) TargetHealth(name string) (HealthState, error) {
	t, err := s.lookup(name)
	if err != nil {
		return TargetHealthy, err
	}
	st, _, _, _, _ := t.health.snapshot()
	return st, nil
}

// TargetHealthScore reports the named target's health state together with
// the rate-based score behind it, in [0, 1] (1 = perfectly healthy). The
// fleet layer ranks a replica group's members with it: replicas sort by
// state, and the raw score breaks ties, so traffic prefers the replica the
// health machinery currently trusts most.
func (s *Server) TargetHealthScore(name string) (HealthState, float64, error) {
	t, err := s.lookup(name)
	if err != nil {
		return TargetHealthy, 0, err
	}
	st, _, _, _, _ := t.health.snapshot()
	return st, t.health.score(), nil
}

// Query is a query parsed once, on the classification session of the target
// it was prepared for (Prepare), so that submitting it there (SubmitPrepared)
// evaluates the AST instead of parsing the source again. The AST holds that
// target's C types, so it is only ever evaluated there: submitted to any
// other target, the query is parsed afresh from Src.
type Query struct {
	// Src is the query's source text.
	Src string
	// Mutating is the query's own write verdict: it assigns, increments or
	// decrements, declares, interns a string literal, or calls anything but
	// a read-only builtin. It does not depend on whether the target refuses
	// writes (MutatesTargetFor's lock mode does), so a routing layer that
	// picks read failover or write fan-out on it sends a write down the
	// write path whichever replica prepared it.
	Mutating bool

	t    *targetState // the target the AST was parsed for; nil: not parsed
	node *ast.Node
}

// Prepare parses src on the named target's classification session and
// returns the AST with the query's own write verdict, so that a routing
// layer can pick a path (read failover vs write fan-out) and then submit the
// same parse with SubmitPrepared. Preparing is not an admission: no counter
// moves until the query is submitted. A parse error reports as the error;
// the caller typically routes such a query down the read path and lets the
// serving node surface the error with full accounting.
func (s *Server) Prepare(target, src string) (*Query, error) {
	t, err := s.lookup(target)
	if err != nil {
		return nil, err
	}
	q, err := t.prepare(src)
	if err != nil {
		return nil, err
	}
	return &q, nil
}

// TargetReadOnly reports whether the named target's substrate refuses
// writes (dbgif.ReadOnly through the session middleware chain — a core
// dump, say). Routing layers use it to fast-fail mutating queries against
// replica groups containing an immutable member.
func (s *Server) TargetReadOnly(name string) (bool, error) {
	t, err := s.lookup(name)
	if err != nil {
		return false, err
	}
	return t.readOnly()
}

// classifierLocked returns the target's dedicated classification session,
// building it lazily on first use. Callers must hold clsMu. The session
// only ever parses (never touches target memory), so one per target
// suffices.
func (t *targetState) classifierLocked() (*duel.Session, error) {
	if t.cls == nil {
		ses, err := t.factory()
		if err != nil {
			return nil, err
		}
		t.cls = ses
	}
	return t.cls, nil
}

// prepare parses src on the target's dedicated classification session and
// returns it as a Query carrying its own write verdict. The fleet router
// must know the verdict before choosing the query's path — without
// borrowing a pooled evaluation session, which a worker may be using — and
// the AST then rides the job, so the query is parsed once.
//
// Classification never evaluates, so it cannot define aliases — but the
// session is long-lived and shared by every Prepare against the target, so
// it gets the same hygiene pooled sessions get anyway: a polluting tree
// (x := e, declarations, interned strings) scrubs the session on the way
// out. Defense in depth: if a future parse path ever grows session state,
// the classifier cannot quietly accumulate it across calls
// (TestClassifierSessionHygiene pins this).
func (t *targetState) prepare(src string) (Query, error) {
	t.clsMu.Lock()
	defer t.clsMu.Unlock()
	ses, err := t.classifierLocked()
	if err != nil {
		return Query{}, err
	}
	n, err := ses.Parse(src)
	if err != nil {
		return Query{}, err
	}
	if Pollutes(n) {
		ses.ClearAliases()
	}
	return Query{Src: src, Mutating: mutatesTarget(n, ses.D), t: t, node: n}, nil
}

// readOnly reports whether the target's substrate refuses writes
// (dbgif.ReadOnly — a core dump, say), resolved through the classifier
// session's middleware chain.
func (t *targetState) readOnly() (bool, error) {
	t.clsMu.Lock()
	defer t.clsMu.Unlock()
	ses, err := t.classifierLocked()
	if err != nil {
		return false, err
	}
	return dbgif.ReadOnly(ses.D), nil
}

// PenalizeTarget feeds n synthetic infra-failure samples into the named
// target's health score and counts one divergence against it. This is the
// hook the fleet scrubber uses when cross-replica diffing catches a target
// answering wrongly: wrong answers carry no latency or error signal of
// their own, so integrity findings enter the health machinery here and
// drive the same brownout→quarantine response a faulting target earns.
func (s *Server) PenalizeTarget(name string, n int) error {
	t, err := s.lookup(name)
	if err != nil {
		return err
	}
	t.health.penalize(n)
	return nil
}

// Stats snapshots the server's counters. The snapshot always satisfies
// Completed <= Admitted: every query increments Admitted strictly before it
// can be picked up by a worker, and the loads below read Completed before
// Admitted, so a query that races the snapshot can inflate Admitted but
// never Completed. (The other counters are independent tallies.)
func (s *Server) Stats() Stats {
	var st Stats
	st.Completed = s.stats.completed.Load()
	st.Failed = s.stats.failed.Load()
	st.Shed = s.stats.shed.Load()
	st.Drained = s.stats.drained.Load()
	st.Admitted = s.stats.admitted.Load()
	st.DeadlineExpired = s.stats.deadlineExpired.Load()
	st.Retried = s.stats.retried.Load()
	st.StreamQueries = s.stats.streamQueries.Load()
	st.StreamValues = s.stats.streamValues.Load()
	st.QueueNanos = s.stats.queueNanos.Load()
	st.EvalNanos = s.stats.evalNanos.Load()
	s.targetMu.RLock()
	for _, t := range s.targets {
		_, trips, fastFails := t.brk.snapshot()
		st.Trips += trips
		st.FastFails += fastFails
		_, quarantines, qFails, brownouts, bSheds := t.health.snapshot()
		st.Quarantined += quarantines
		st.QuarantineFails += qFails
		st.Brownouts += brownouts
		st.BrownoutSheds += bSheds
		st.Divergences += t.health.divergences.Load()
		st.TargetLocks += t.locks.Load()
	}
	s.targetMu.RUnlock()
	return st
}

// SubmitOptions carries per-query serving policy.
type SubmitOptions struct {
	// Deadline bounds the query end to end, queue time included: if it
	// lapses while the query is queued the query is shed with
	// ErrDeadlineExceeded without touching a session or the target lock,
	// and once running the evaluation executes under a context carrying
	// min(Deadline, ctx's own deadline). Zero means no extra deadline.
	Deadline time.Time
}

// Eval evaluates src against the named target, collecting all produced
// values. It blocks until the query completes, is shed, or is canceled;
// canceling ctx revokes the query even mid-evaluation.
func (s *Server) Eval(ctx context.Context, target, src string) ([]duel.Result, error) {
	return s.EvalWith(ctx, target, src, SubmitOptions{})
}

// EvalWith is Eval with per-query serving options.
func (s *Server) EvalWith(ctx context.Context, target, src string, opt SubmitOptions) ([]duel.Result, error) {
	var mu sync.Mutex
	var out []duel.Result
	err := s.SubmitContext(ctx, target, src, opt, func(r duel.Result) error {
		mu.Lock()
		out = append(out, r)
		mu.Unlock()
		return nil
	})
	return out, err
}

// Exec evaluates src against the named target and writes one line per value
// to w, with the session's MaxOutput truncation behavior. Output is
// buffered per query and written with a single serialized Write, so any
// number of concurrent queries can share one io.Writer without interleaving
// mid-line.
func (s *Server) Exec(ctx context.Context, target string, w io.Writer, src string) error {
	maxOut := s.cfg.Session.MaxOutput
	var buf bytes.Buffer
	count := 0
	err := s.SubmitContext(ctx, target, src, SubmitOptions{}, func(r duel.Result) error {
		count++
		if maxOut > 0 && count > maxOut {
			fmt.Fprintf(&buf, "... (output truncated at %d lines)\n", maxOut)
			return errTruncated
		}
		_, err := fmt.Fprintln(&buf, r.Line())
		return err
	})
	if errors.Is(err, errTruncated) {
		err = nil
	}
	if buf.Len() > 0 {
		s.outMu.Lock()
		_, werr := w.Write(buf.Bytes())
		s.outMu.Unlock()
		if err == nil {
			err = werr
		}
	}
	return err
}

// errTruncated mirrors the session-level sentinel: truncation is not a
// failure.
var errTruncated = errors.New("serve: output truncated")

// queryOutcome is the submitter-side result of one attempt: the error to
// surface plus what the worker learned about the query on the way.
type queryOutcome struct {
	err     error
	ran     bool // the attempt actually evaluated (vs shed/refused)
	mutated bool

	queueWait time.Duration // admission → worker pickup, of the deciding attempt
	evalDur   time.Duration // evaluation wall-clock, of the deciding attempt
}

// SubmitContext runs one query through admission, the queue, and a worker,
// applying the server's resilience policies: the per-query deadline rides
// the job, and a transient infra failure may be retried once under the
// target's retry budget. emit is called from the worker goroutine; the
// happens-before edge of the done channel makes its writes visible to the
// caller afterwards. However many attempts this spawns, the query counts as
// at most one admission and at most one completion.
func (s *Server) SubmitContext(ctx context.Context, target, src string, opt SubmitOptions, emit func(duel.Result) error) error {
	t, err := s.lookup(target)
	if err != nil {
		return err
	}
	return s.submit(ctx, t, Query{Src: src}, opt, emit)
}

// submit is SubmitContext on a resolved target. q.node, when set, is q.Src
// parsed for t; every attempt of the query evaluates it.
func (s *Server) submit(ctx context.Context, t *targetState, q Query, opt SubmitOptions, emit func(duel.Result) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := opt.Deadline
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	// Count results delivered to the caller: a retry is only safe while
	// the caller has seen nothing (a re-run would duplicate output).
	emitted := 0
	countEmit := func(r duel.Result) error {
		emitted++
		return emit(r)
	}

	out := s.runOnce(ctx, t, q, countEmit, deadline, true)

	// Serve-layer retry: one extra attempt, spent from the target's token
	// bucket, for failures that are the infrastructure's fault and that a
	// fresh attempt can fix — a breaker rejection that never ran, or a
	// memio retry schedule spent to exhaustion on an attempt that ran but
	// delivered nothing. Mutating queries never retry (the failed attempt
	// may have half-applied its writes).
	if s.retryableOutcome(out, emitted) && t.retry.take() {
		if (deadline.IsZero() || s.cfg.now().Before(deadline)) && sleepCtx(ctx, t.retry.backoff) {
			s.stats.retried.Add(1)
			second := s.runOnce(ctx, t, q, countEmit, deadline, false)
			// The retry's outcome stands unless it was refused without
			// running while the original at least ran.
			if second.ran || !out.ran {
				out = second
			}
		}
	}

	if out.ran {
		s.stats.completed.Add(1)
		s.stats.queueNanos.Add(int64(out.queueWait))
		s.stats.evalNanos.Add(int64(out.evalDur))
		t.retry.earn()
		// Output truncation is a clean completion, not a failure: the
		// emit callback stops the evaluation early on purpose.
		if out.err != nil && !errors.Is(out.err, errTruncated) {
			s.stats.failed.Add(1)
		}
	}
	return out.err
}

// retryableOutcome classifies an attempt outcome for the serve-layer retry.
func (s *Server) retryableOutcome(out queryOutcome, emitted int) bool {
	if out.err == nil || out.mutated || emitted > 0 {
		return false
	}
	if !out.ran {
		return errors.Is(out.err, ErrCircuitOpen)
	}
	return memio.IsRetryExhausted(out.err)
}

// runOnce drives a single attempt through the queue and blocks for its
// worker. counted marks the attempt that carries the query's stats counts.
func (s *Server) runOnce(ctx context.Context, t *targetState, q Query, emit func(duel.Result) error, deadline time.Time, counted bool) queryOutcome {
	j, err := s.enqueue(ctx, t, q, emit, deadline, counted)
	if err != nil {
		return queryOutcome{err: err}
	}
	// Always wait for the worker: the evaluation itself is revocable
	// through ctx, so this wait is bounded by the caller's own deadline,
	// and never returning early keeps emit's writes race-free.
	err = <-j.done
	out := queryOutcome{err: err, ran: j.ran, mutated: j.mutated, queueWait: j.queueWait, evalDur: j.evalDur}
	putJob(j)
	return out
}

// enqueue places one attempt in the queue under admission control. counted
// attempts carry the query's Admitted/Shed/Drained counts; a retry attempt
// passes counted=false so a query never counts twice.
func (s *Server) enqueue(ctx context.Context, t *targetState, q Query, emit func(duel.Result) error, deadline time.Time, counted bool) (*job, error) {
	s.admitMu.RLock()
	if s.state != stateServing {
		s.admitMu.RUnlock()
		if counted {
			s.stats.drained.Add(1)
		}
		return nil, ErrDraining
	}
	healthProbe, err := t.health.admit()
	if err != nil {
		s.admitMu.RUnlock()
		return nil, fmt.Errorf("target %q: %w", t.name, err)
	}
	probe, err := t.brk.admit()
	if err != nil {
		s.admitMu.RUnlock()
		if healthProbe {
			t.health.cancelProbe()
		}
		return nil, fmt.Errorf("target %q: %w", t.name, err)
	}
	j := jobPool.Get().(*job)
	j.ctx, j.t, j.src, j.node, j.emit = ctx, t, q.Src, q.node, emit
	j.deadline, j.probe, j.healthProbe, j.counted = deadline, probe, healthProbe, counted
	j.enqueuedAt = s.cfg.now()
	// Count the admission before the enqueue: once the job is in the
	// queue a worker can complete it at any moment, and a Stats snapshot
	// taken in that window used to show Completed > Admitted. A query
	// that turns out to be shed rolls its increment back below.
	if counted {
		s.stats.admitted.Add(1)
	}
	select {
	case s.queue <- j:
		s.admitMu.RUnlock()
		return j, nil
	default:
		s.admitMu.RUnlock()
		if counted {
			s.stats.admitted.Add(-1)
			s.stats.shed.Add(1)
		}
		s.releaseProbes(j)
		putJob(j)
		return nil, ErrOverloaded
	}
}

// releaseProbes returns any probe slots an attempt held without running.
func (s *Server) releaseProbes(j *job) {
	if j.probe {
		j.t.brk.cancelProbe()
	}
	if j.healthProbe {
		j.t.health.cancelProbe()
	}
}

// worker pulls jobs until drain, then finishes whatever is still queued.
// Across jobs it keeps affinity with the last target it served: the session
// stays out of the shared pool, so the common many-queries-one-target
// stream never touches poolMu after warmup.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	var aff affinity
	defer func() {
		if aff.ps != nil {
			aff.t.put(aff.ps)
		}
	}()
	for {
		select {
		case j := <-s.queue:
			j.done <- s.run(j, &aff, id)
		case <-s.drainCh:
			for {
				select {
				case j := <-s.queue:
					j.done <- s.run(j, &aff, id)
				default:
					return
				}
			}
		}
	}
}

// acquire hands the worker a session for j's target: its affinity session
// when the target matches, a pooled (or fresh) one otherwise — releasing
// the old affinity session back to its own target's pool first.
func (s *Server) acquire(j *job, aff *affinity) (*pooledSession, error) {
	if aff.ps != nil && aff.t == j.t {
		ps := aff.ps
		aff.ps = nil
		return ps, nil
	}
	if aff.ps != nil {
		aff.t.put(aff.ps)
		aff.ps = nil
	}
	return j.t.get()
}

// retain parks the session as the worker's affinity session for j's target.
func retain(j *job, aff *affinity, ps *pooledSession) {
	aff.t, aff.ps = j.t, ps
}

// run executes one attempt on the calling worker. Completion/failure
// accounting lives with the submitter (SubmitContext), which sees the whole
// query; this function only maintains the shed-class counters for counted
// attempts and reports ran/mutated back through the job.
func (s *Server) run(j *job, aff *affinity, id int) error {
	j.queueWait = s.cfg.now().Sub(j.enqueuedAt)
	if !j.deadline.IsZero() && s.cfg.now().After(j.deadline) {
		// The deadline lapsed while the query sat in the queue: shed it
		// here, before acquiring a session or the target lock — the whole
		// point of carrying the deadline through the queue is that an
		// already-dead query costs the target nothing.
		s.releaseProbes(j)
		if j.counted {
			s.stats.deadlineExpired.Add(1)
		}
		return ErrDeadlineExceeded
	}
	if err := context.Cause(j.ctx); err != nil {
		// The caller gave up while the query was queued.
		s.releaseProbes(j)
		if j.counted {
			if errors.Is(err, context.DeadlineExceeded) {
				s.stats.deadlineExpired.Add(1)
			} else {
				s.stats.drained.Add(1)
			}
		}
		return &core.CanceledError{Cause: err}
	}
	if s.hardCtx.Err() != nil {
		// The drain deadline passed while the query was queued.
		s.releaseProbes(j)
		if j.counted {
			s.stats.drained.Add(1)
		}
		return ErrDraining
	}

	ps, err := s.acquire(j, aff)
	if err != nil {
		s.releaseProbes(j)
		j.ran = true // the query spent its admission; the submitter counts it
		return err
	}
	ses := ps.ses
	n := j.node
	if n == nil {
		var perr error
		if n, perr = ses.Parse(j.src); perr != nil {
			// A parse error never reached the target; it says nothing
			// about target health, so neither the breaker nor the health
			// score hears about it.
			s.releaseProbes(j)
			retain(j, aff, ps)
			j.ran = true
			return perr
		}
	}

	mutating := MutatesTargetFor(n, ses.D)
	j.mutated = mutating
	if mutating && !j.t.health.allowWrite() {
		// Brownout: the degraded target keeps serving reads under the
		// shared lock, but writes — which take the exclusive lock and
		// amplify its sickness into pool-wide stalls — are shed.
		s.releaseProbes(j)
		retain(j, aff, ps)
		j.t.health.brownoutSheds.Add(1)
		return fmt.Errorf("target %q: %w", j.t.name, ErrBrownout)
	}

	// Compose the caller's context with the query deadline and the
	// server's drain deadline.
	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline.IsZero() {
		ctx, cancel = context.WithCancel(j.ctx)
	} else {
		ctx, cancel = context.WithDeadline(j.ctx, j.deadline)
	}
	stop := context.AfterFunc(s.hardCtx, cancel)

	if mutating {
		j.t.rw.Lock()
	} else {
		j.t.rw.RLock(id)
	}
	j.t.locks.Add(1)
	// Under the lock the write epoch is stable; catch this session's page
	// cache up to it before touching memory.
	ps.sync(j.t)
	start := time.Now()
	err = ses.EvalNodeContext(ctx, n, j.emit)
	elapsed := time.Since(start)
	j.evalDur = elapsed
	if mutating {
		// Publish the mutation: sessions whose accessors may hold
		// pre-write bytes flush themselves when they next observe the new
		// epoch. This session's own accessor invalidated as it wrote, so
		// it is already current.
		ps.epoch = j.t.epoch.Add(1)
		j.t.rw.Unlock()
	} else {
		j.t.rw.RUnlock(id)
	}
	stop()
	cancel()

	infra := infraFailure(err)
	j.t.brk.record(j.probe, infra)
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		// A canceled attempt (the caller gave up) says nothing about
		// target health, and its latency is the canceler's choice, not the
		// target's.
		if j.healthProbe {
			j.t.health.cancelProbe()
		}
	} else {
		slow := s.cfg.Health.SlowLatency > 0 && elapsed > s.cfg.Health.SlowLatency
		j.t.health.observe(j.healthProbe, infra, slow)
	}
	if Pollutes(n) {
		// The query grew session-local state (aliases, DUEL declarations,
		// interned strings); wipe it so pooled sessions stay
		// interchangeable — a follow-up query must not see another
		// caller's x := alias.
		ses.ClearAliases()
	}
	retain(j, aff, ps)
	j.ran = true
	return err
}

// Shutdown drains the server: admissions stop immediately, queries already
// admitted run to completion, and once ctx expires whatever is still
// running is revoked (its callers see *core.CanceledError) and whatever is
// still queued is refused with ErrDraining. It returns nil after a clean
// drain, ctx's error if the deadline forced revocation — in both cases only
// after every worker goroutine has exited, so a Shutdown that returned
// leaks nothing. Subsequent queries fail with ErrDraining; subsequent
// Shutdowns are no-ops that wait the same way.
func (s *Server) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.admitMu.Lock()
	if s.state == stateServing {
		s.state = stateDraining
		close(s.drainCh)
	}
	s.admitMu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
		s.hardCancel()
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-workersDone
		return ctx.Err()
	}
}

// get pops an idle pooled session or builds a fresh one. A fresh session's
// accessor holds no pages, so any epoch labels it correctly.
func (t *targetState) get() (*pooledSession, error) {
	t.poolMu.Lock()
	if n := len(t.idle); n > 0 {
		ps := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.poolMu.Unlock()
		return ps, nil
	}
	t.poolMu.Unlock()
	ses, err := t.factory()
	if err != nil {
		return nil, err
	}
	return &pooledSession{ses: ses, epoch: t.epoch.Load()}, nil
}

// put returns a session to the pool.
func (t *targetState) put(ps *pooledSession) {
	t.poolMu.Lock()
	t.idle = append(t.idle, ps)
	t.poolMu.Unlock()
}

// MutatesTarget reports whether the tree can write target memory or run
// target code: assignments, increments/decrements, target calls,
// declarations and interned string literals (both allocate target space).
// Alias definitions (x := e) are session-local state, not target writes.
// Every call counts as mutating here; MutatesTargetFor narrows builtin
// calls when a debugger is available to resolve names against.
func MutatesTarget(n *ast.Node) bool { return mutatesTarget(n, nil) }

// MutatesTargetFor is MutatesTarget with the target's symbol table in hand:
// calls to the evaluator's read-only builtins — frames(), and frame(i) with
// non-mutating arguments — are recognized (exactly when the target does not
// shadow the name with its own variable, mirroring Env.evalCall) and no
// longer force the exclusive target lock. The serving layer classifies with
// this form so plain read queries never serialize writers-style.
//
// A target that declares itself read-only (dbgif.ReadOnly — a core dump,
// say) cannot be mutated by any query: every write-shaped construct fails
// with ErrReadOnlyTarget before touching memory. Classifying everything as
// non-mutating keeps the whole workload on the shared read lock. That makes
// this a lock mode, not a verdict on the query: routing between replicas
// uses Query.Mutating, which a read-only target does not change.
func MutatesTargetFor(n *ast.Node, d dbgif.Debugger) bool {
	if d != nil && dbgif.ReadOnly(d) {
		return false
	}
	return mutatesTarget(n, d)
}

func mutatesTarget(n *ast.Node, d dbgif.Debugger) bool {
	if n == nil {
		return false
	}
	switch n.Op {
	case ast.OpAssign, ast.OpAddAssign, ast.OpSubAssign, ast.OpMulAssign,
		ast.OpDivAssign, ast.OpModAssign, ast.OpAndAssign, ast.OpOrAssign,
		ast.OpXorAssign, ast.OpShlAssign, ast.OpShrAssign,
		ast.OpPreInc, ast.OpPreDec, ast.OpPostInc, ast.OpPostDec,
		ast.OpDecl, ast.OpStr:
		return true
	case ast.OpCall:
		if !isReadOnlyBuiltinCall(n, d) {
			return true
		}
		// A builtin call reads debugger state only; its arguments can
		// still mutate (frame(x[0]++)).
		for _, k := range n.Kids[1:] {
			if mutatesTarget(k, d) {
				return true
			}
		}
		return false
	}
	for _, k := range n.Kids {
		if mutatesTarget(k, d) {
			return true
		}
	}
	return false
}

// isReadOnlyBuiltinCall reports whether n is a call that the evaluator
// resolves to a read-only builtin rather than target code: frame(i) and
// frames(), unless the target defines a variable of the same name (the
// evaluator gives the target's own symbols precedence; see Env.evalCall).
func isReadOnlyBuiltinCall(n *ast.Node, d dbgif.Debugger) bool {
	if d == nil || len(n.Kids) == 0 {
		return false
	}
	callee := n.Kids[0]
	if callee.Op != ast.OpName {
		return false
	}
	switch callee.Name {
	case "frame", "frames":
		_, shadowed := d.GetTargetVariable(callee.Name)
		return !shadowed
	}
	return false
}

// Pollutes reports whether the tree leaves session-local state behind that
// would make the session non-interchangeable in the pool.
func Pollutes(n *ast.Node) bool {
	if n == nil {
		return false
	}
	if n.Op == ast.OpDefine || n.Op == ast.OpDecl || n.Op == ast.OpStr {
		return true
	}
	for _, k := range n.Kids {
		if Pollutes(k) {
			return true
		}
	}
	return false
}

// infraFailure classifies an evaluation error for the circuit breaker: true
// for failures that indicate a sick target — transient faults the retry
// budget could not absorb, wedged or failed operations, evaluation
// timeouts — and false for everything that is the query's (or caller's) own
// doing: clean success, parse and type errors, step-limit hits, context
// cancellation, and the paper's garbage-pointer unmapped/short reads, which
// condemn the query's pointer, not the target.
func infraFailure(err error) bool {
	if err == nil {
		return false
	}
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		return false
	}
	var te *core.TimeoutError
	if errors.As(err, &te) {
		return true
	}
	var f *memio.Fault
	if errors.As(err, &f) {
		return f.Kind == memio.KindTransient || f.Kind == memio.KindOther
	}
	return false
}
