// Batched read coalescing: read-only queries against one target ride a
// shared batch instead of each paying the per-query target costs alone.
//
// A read-dominated serve workload spends its per-query overhead in three
// places the queries could share: the target-lock acquisition (one
// RLock/RUnlock pair per query, even sharded), the cold page walk (every
// query faults the same hot stripes into its session's cache), and the queue
// round-trip. The batcher coalesces consecutive read-only queries per target
// into one container job: a flushed batch acquires the target read lock
// once, runs one prefetch warm pass over the union of the members' planned
// scan stripes (core.ScanStripes), then evaluates the members back to back
// on the worker's affine session.
//
// Per-member semantics are preserved exactly: each member keeps its own
// deadline (checked again right before its evaluation — an expired member is
// shed with ErrDeadlineExceeded and the batch continues), its own context,
// its own breaker/health/latency accounting, and exactly one emit stream and
// done send. Mutating queries, parse failures and hedged queries never enter
// a batch; they take the unbatched path unchanged.
//
// Lock ordering: admitMu is always taken before batch.mu, never inside it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/dbgif"
	"duel/internal/memio"
)

// Batching defaults: a batch flushes at BatchSize members or MaxWait after
// its first member, whichever comes first. MaxWait bounds the latency a
// lone query pays for the chance of company; it is deliberately a fraction
// of typical evaluation time, not of the queue depth.
const (
	DefaultBatchSize    = 8
	DefaultBatchMaxWait = 500 * time.Microsecond
)

// BatchConfig tunes read-only query coalescing.
type BatchConfig struct {
	// Enabled turns batching on. Off by default: batching trades a bounded
	// added latency (MaxWait) for fewer lock acquisitions and host reads,
	// which is the right trade only for concurrent read-heavy workloads.
	Enabled bool
	// BatchSize flushes a batch when it reaches this many members.
	// 0 means DefaultBatchSize.
	BatchSize int
	// MaxWait flushes a nonempty batch this long after its first member
	// arrived, so a lone query is never parked waiting for company that
	// is not coming. 0 means DefaultBatchMaxWait.
	MaxWait time.Duration
}

// batcher accumulates one target's pending read-only members between
// flushes. mu nests strictly inside admitMu.
type batcher struct {
	mu      sync.Mutex
	pending []*job
	timer   *time.Timer
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
// returns it as a Query carrying its own write verdict. The batcher and the
// fleet router must know the verdict before choosing the query's path —
// without borrowing a pooled evaluation session, which a worker may be
// using — and the AST then rides the job, so the query is parsed once.
//
// Classification never evaluates, so it cannot define aliases — but the
// session is long-lived and shared by every submit against the target, so
// it gets the same hygiene pooled sessions get anyway: a polluting tree
// (x := e, declarations, interned strings) scrubs the session on the way
// out. Defense in depth: if a future parse path ever grows session state,
// the classifier cannot quietly accumulate it across submits
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
// session's middleware chain. The fleet layer uses this to fast-fail a
// mutating query against a replica group that contains an immutable
// replica, before applying the write anywhere.
func (t *targetState) readOnly() (bool, error) {
	t.clsMu.Lock()
	defer t.clsMu.Unlock()
	ses, err := t.classifierLocked()
	if err != nil {
		return false, err
	}
	return dbgif.ReadOnly(ses.D), nil
}

// submitBatched rides a prepared read-only query on the target's batch. The
// outcome is final: the member was admitted, batched, evaluated (or refused
// with a typed admission error) and its counters are settled.
func (s *Server) submitBatched(ctx context.Context, t *targetState, q Query, emit func(duel.Result) error, deadline time.Time) queryOutcome {
	s.admitMu.RLock()
	if s.state != stateServing {
		s.admitMu.RUnlock()
		s.stats.drained.Add(1)
		return queryOutcome{err: ErrDraining}
	}
	healthProbe, err := t.health.admit()
	if err != nil {
		s.admitMu.RUnlock()
		return queryOutcome{err: fmt.Errorf("target %q: %w", t.name, err)}
	}
	probe, err := t.brk.admit()
	if err != nil {
		s.admitMu.RUnlock()
		if healthProbe {
			t.health.cancelProbe()
		}
		return queryOutcome{err: fmt.Errorf("target %q: %w", t.name, err)}
	}
	j := jobPool.Get().(*job)
	j.ctx, j.t, j.src, j.node, j.emit = ctx, t, q.Src, q.node, emit
	j.deadline, j.probe, j.healthProbe, j.counted = deadline, probe, healthProbe, true
	j.mutated = false
	j.enqueuedAt = s.cfg.now()
	s.stats.admitted.Add(1)
	s.stats.batchedQueries.Add(1)

	b := t.batch
	b.mu.Lock()
	b.pending = append(b.pending, j)
	full := len(b.pending) >= s.cfg.Batch.BatchSize
	if len(b.pending) == 1 && !full {
		// First member: arm the MaxWait flush. The callback re-takes
		// admitMu (the fixed lock order) and checks the server state —
		// after Shutdown's exclusive flush there is nothing left to do.
		b.timer = time.AfterFunc(s.cfg.Batch.MaxWait, func() {
			s.admitMu.RLock()
			if s.state == stateServing {
				s.flushBatch(t, false)
			}
			s.admitMu.RUnlock()
		})
	}
	b.mu.Unlock()
	if full {
		s.flushBatch(t, false)
	}
	s.admitMu.RUnlock()

	err = <-j.done
	out := queryOutcome{err: err, ran: j.ran, mutated: j.mutated, queueWait: j.queueWait, evalDur: j.evalDur}
	putJob(j)
	return out
}

// flushBatch moves the batcher's pending members into one container job on
// the queue. The caller must hold admitMu (shared on the size and timer
// paths, exclusive from Shutdown), which is what makes the queue send safe
// against the drain gate. A full queue fails the members instead of
// blocking a flush under admitMu.
func (s *Server) flushBatch(t *targetState, draining bool) {
	b := t.batch
	b.mu.Lock()
	members := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.mu.Unlock()
	if len(members) == 0 {
		return
	}
	c := jobPool.Get().(*job)
	c.t = t
	c.members = members
	s.stats.batchFlushes.Add(1)
	select {
	case s.queue <- c:
	default:
		c.members = nil
		putJob(c)
		refuse := error(ErrOverloaded)
		if draining {
			refuse = ErrDraining
		}
		for _, j := range members {
			s.stats.admitted.Add(-1)
			if draining {
				s.stats.drained.Add(1)
			} else {
				s.stats.shed.Add(1)
			}
			s.releaseProbes(j)
			j.done <- refuse
		}
	}
}

// runBatch executes a flushed batch on the calling worker: one session, one
// target read-lock acquisition, one warm pass, then the members in arrival
// order. Every member gets exactly one done send on every path out.
func (s *Server) runBatch(c *job, aff *affinity, id int) {
	t := c.t
	pickup := s.cfg.now()

	// A batch admitted against a target that has since quarantined must not
	// touch it: the score collapsed after these members were admitted, and
	// running them anyway would be eight more hits on a target the health
	// machine just decided to protect. Brownout is no obstacle — it sheds
	// writes and a batch is all reads.
	if hst, _, _, _, _ := t.health.snapshot(); hst == TargetQuarantined {
		for _, j := range c.members {
			j.queueWait = pickup.Sub(j.enqueuedAt)
			s.releaseProbes(j)
			j.done <- fmt.Errorf("target %q: %w", t.name, ErrQuarantined)
		}
		return
	}

	ps, err := s.acquire(c, aff)
	if err != nil {
		for _, j := range c.members {
			j.queueWait = pickup.Sub(j.enqueuedAt)
			s.releaseProbes(j)
			j.ran = true // the query spent its admission; the submitter counts it
			j.done <- err
		}
		return
	}
	ses := ps.ses

	// Every member arrives parsed (submitBatched takes prepared queries
	// only); collect the union of their statically plannable scan stripes
	// for the warm pass.
	var stripes []memio.Range
	for _, j := range c.members {
		j.queueWait = pickup.Sub(j.enqueuedAt)
		stripes = append(stripes, core.ScanStripes(ses.Env, j.node)...)
	}

	t.rw.RLock(id)
	t.locks.Add(1)
	ps.sync(t)
	mem := ses.Mem()
	// BeginBatch pins the prefetched pages across the members: without it,
	// the first member's evaluation would release the warm pass's pages on
	// its way out and every later member would fault them back in.
	mem.BeginBatch()
	if len(stripes) > 0 {
		mem.PrefetchRanges(stripes)
	}
	for _, j := range c.members {
		s.runBatchMember(j, ses)
	}
	mem.EndBatch()
	t.rw.RUnlock(id)
	retain(c, aff, ps)
}

// runBatchMember evaluates one batch member on the shared session, with the
// target read lock already held by runBatch. It mirrors run()'s accounting
// exactly — per-member deadline, cancellation, drain, breaker, health and
// latency — and always sends the member's done exactly once.
func (s *Server) runBatchMember(j *job, ses *duel.Session) {
	// The member's deadline may have lapsed while earlier members of the
	// batch evaluated; shed it now, typed, and let the batch continue.
	if !j.deadline.IsZero() && s.cfg.now().After(j.deadline) {
		s.releaseProbes(j)
		s.stats.deadlineExpired.Add(1)
		j.done <- ErrDeadlineExceeded
		return
	}
	if err := context.Cause(j.ctx); err != nil {
		s.releaseProbes(j)
		if errors.Is(err, context.DeadlineExceeded) {
			s.stats.deadlineExpired.Add(1)
		} else {
			s.stats.drained.Add(1)
		}
		j.done <- &core.CanceledError{Cause: err}
		return
	}
	if s.hardCtx.Err() != nil {
		s.releaseProbes(j)
		s.stats.drained.Add(1)
		j.done <- ErrDraining
		return
	}

	var ctx context.Context
	var cancel context.CancelFunc
	if j.deadline.IsZero() {
		ctx, cancel = context.WithCancel(j.ctx)
	} else {
		ctx, cancel = context.WithDeadline(j.ctx, j.deadline)
	}
	stop := context.AfterFunc(s.hardCtx, cancel)
	start := time.Now()
	err := ses.EvalNodeContext(ctx, j.node, j.emit)
	elapsed := time.Since(start)
	j.evalDur = elapsed
	stop()
	cancel()

	infra := infraFailure(err)
	j.t.brk.record(j.probe, infra)
	var ce *core.CanceledError
	if errors.As(err, &ce) {
		if j.healthProbe {
			j.t.health.cancelProbe()
		}
	} else {
		slow := s.cfg.Health.SlowLatency > 0 && elapsed > s.cfg.Health.SlowLatency
		j.t.health.observe(j.healthProbe, infra, slow)
		if err == nil || errors.Is(err, errTruncated) {
			j.t.lat.observe(elapsed)
		}
	}
	if Pollutes(j.node) {
		ses.ClearAliases()
	}
	j.ran = true
	j.done <- err
}
