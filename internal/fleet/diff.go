// Relative debugging: run one DUEL query against two replicas and diff the
// symbolic value streams.
//
// DUCT (PAPERS.md) debugs a program relative to another run of itself: the
// interesting fact is not "x[3] is 7" but "x[3] is 7 HERE and 9 THERE".
// DUEL's value streams make that comparison precise and cheap — a query is
// a deterministic generator of (symbolic expression, value) pairs, so two
// replicas of the same image must produce byte-identical streams, and the
// first position where they do not is the divergence, pinned to a symbolic
// expression a human can act on ("list[[2]]->next->value = 7 vs 9").
//
// Diff is the user-facing form: pick two replicas, get a typed report. The
// background scrubber (scrub.go) reuses the same comparison as a continuous
// integrity check over the whole group.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"duel/internal/serve"
)

// DivergenceKind classifies what diverged first.
type DivergenceKind int

const (
	// DivergeNone: the streams were identical, errors included.
	DivergeNone DivergenceKind = iota
	// DivergeValue: both sides produced a value at Seq and they differ.
	DivergeValue
	// DivergeLength: one side's stream ended while the other kept
	// producing.
	DivergeLength
	// DivergeError: the streams matched but the evaluation outcomes differ
	// (one side failed, or they failed differently).
	DivergeError
)

func (k DivergenceKind) String() string {
	switch k {
	case DivergeNone:
		return "none"
	case DivergeValue:
		return "value"
	case DivergeLength:
		return "length"
	case DivergeError:
		return "error"
	}
	return "unknown"
}

// DiffSide is one replica's half of a comparison.
type DiffSide struct {
	Replica string // replica name
	Count   int    // values the stream produced (capped at DiffLimit)
	Err     string // evaluation error text, "" for a clean stream
}

// DiffReport is the typed outcome of one relative-debugging comparison.
type DiffReport struct {
	Group string
	Query string
	A, B  DiffSide

	Diverged bool
	Kind     DivergenceKind
	// Seq is the first diverging sequence number: the index of the first
	// value the sides disagree on (DivergeValue), the shorter side's length
	// (DivergeLength), or the matched stream length (DivergeError). -1 when
	// the streams are identical.
	Seq int
	// The two sides' values at Seq. A side that had already ended reports
	// empty strings.
	ASym, AText string
	BSym, BText string
	// ASuffix/BSuffix count each side's values from Seq to its end — how
	// much stream remains past the divergence point.
	ASuffix, BSuffix int
	// Truncated reports that DiffLimit capped at least one side before its
	// stream ended; an identical-so-far truncated pair is NOT proof of
	// identity.
	Truncated bool
}

// String renders the report the way the REPL prints it.
func (d *DiffReport) String() string {
	if !d.Diverged {
		if d.Truncated {
			return fmt.Sprintf("no divergence in the first %d values of %q (%s vs %s; comparison truncated)",
				d.A.Count, d.Query, d.A.Replica, d.B.Replica)
		}
		return fmt.Sprintf("no divergence: %q produced %d identical values on %s and %s",
			d.Query, d.A.Count, d.A.Replica, d.B.Replica)
	}
	switch d.Kind {
	case DivergeValue:
		return fmt.Sprintf("diverged at #%d: %s: %s = %s, %s: %s = %s (+%d/+%d values after)",
			d.Seq, d.A.Replica, d.ASym, d.AText, d.B.Replica, d.BSym, d.BText, d.ASuffix, d.BSuffix)
	case DivergeLength:
		longer, n := d.A.Replica, d.ASuffix
		if d.BSuffix > d.ASuffix {
			longer, n = d.B.Replica, d.BSuffix
		}
		return fmt.Sprintf("diverged at #%d: %s produced %d extra value(s) past the other side's end",
			d.Seq, longer, n)
	case DivergeError:
		return fmt.Sprintf("diverged after %d matching value(s): %s: %s, %s: %s",
			d.Seq, d.A.Replica, orClean(d.A.Err), d.B.Replica, orClean(d.B.Err))
	}
	return "diverged"
}

func orClean(err string) string {
	if err == "" {
		return "completed cleanly"
	}
	return "error: " + err
}

// Diff runs src against replicas a and b of the named group and reports
// where their value streams diverge. The query must be read-only
// (ErrDiffMutating otherwise — evaluating a write once per side would
// double-apply it); the two replicas are addressed by registration index
// and may be killed or quarantined, in which case their side reports the
// refusal as its error (which is itself a divergence when the other side
// answers). A diverged report is also recorded as the router's
// LastDivergence.
func (r *Router) Diff(ctx context.Context, groupName, src string, a, b int) (*DiffReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g, ra, err := r.replicaAt(groupName, a)
	if err != nil {
		return nil, err
	}
	_, rb, err := r.replicaAt(groupName, b)
	if err != nil {
		return nil, err
	}
	if a == b {
		return nil, fmt.Errorf("fleet: diff needs two distinct replicas (got %d and %d)", a, b)
	}
	// The query's own write verdict, never a replica's lock mode: a
	// read-only replica must not let a write through to the other side.
	q := prepare(ra, src)
	if q != nil && q.Mutating {
		return nil, fmt.Errorf("%w: %q", ErrDiffMutating, src)
	}
	rep := r.diffReplicas(ctx, g, src, q, ra, rb)
	if rep.Diverged {
		r.lastDiv.Store(rep)
	}
	return rep, nil
}

// diffReplicas collects both sides concurrently and compares them. It is
// the shared engine under Diff and the scrubber. q, when non-nil, is src
// prepared on one of the replicas (see runOn).
func (r *Router) diffReplicas(ctx context.Context, g *group, src string, q *serve.Query, ra, rb *replica) *DiffReport {
	var (
		wg     sync.WaitGroup
		av, bv []serve.StreamValue
		ae, be string
		at, bt bool
	)
	wg.Add(2)
	go func() { defer wg.Done(); av, ae, at = r.collect(ctx, ra, src, q) }()
	go func() { defer wg.Done(); bv, be, bt = r.collect(ctx, rb, src, q) }()
	wg.Wait()
	rep := compareStreams(av, bv, ae, be)
	rep.Group, rep.Query = g.name, src
	rep.A.Replica, rep.B.Replica = ra.name, rb.name
	rep.Truncated = at || bt
	return rep
}

// collect runs src directly against one replica (no failover — the caller
// chose THIS replica on purpose) and returns its stream, error text, and
// whether DiffLimit truncated it.
func (r *Router) collect(ctx context.Context, rep *replica, src string, q *serve.Query) (vals []serve.StreamValue, errText string, truncated bool) {
	if rep.isKilled() {
		return nil, ErrReplicaKilled.Error(), false
	}
	emitted := 0
	err := r.runOn(ctx, rep, src, q, serve.SubmitOptions{}, &emitted, func(v serve.StreamValue) error {
		if len(vals) >= r.cfg.DiffLimit {
			truncated = true
			return errDiffTruncated
		}
		vals = append(vals, v)
		return nil
	})
	if err != nil && !errors.Is(err, errDiffTruncated) {
		errText = err.Error()
	}
	return vals, errText, truncated
}

// errDiffTruncated aborts a collection that hit DiffLimit; like Exec's
// truncation it is bookkeeping, not a failure of the replica.
var errDiffTruncated = fmt.Errorf("fleet: diff value limit reached")

// compareStreams finds the first divergence between two collected streams.
func compareStreams(av, bv []serve.StreamValue, aerr, berr string) *DiffReport {
	rep := &DiffReport{
		A:   DiffSide{Count: len(av), Err: aerr},
		B:   DiffSide{Count: len(bv), Err: berr},
		Seq: -1,
	}
	n := len(av)
	if len(bv) < n {
		n = len(bv)
	}
	for i := 0; i < n; i++ {
		if av[i].Sym != bv[i].Sym || av[i].Text != bv[i].Text {
			rep.Diverged, rep.Kind, rep.Seq = true, DivergeValue, i
			rep.ASym, rep.AText = av[i].Sym, av[i].Text
			rep.BSym, rep.BText = bv[i].Sym, bv[i].Text
			rep.ASuffix, rep.BSuffix = len(av)-i, len(bv)-i
			return rep
		}
	}
	if len(av) != len(bv) {
		rep.Diverged, rep.Kind, rep.Seq = true, DivergeLength, n
		if len(av) > n {
			rep.ASym, rep.AText = av[n].Sym, av[n].Text
		}
		if len(bv) > n {
			rep.BSym, rep.BText = bv[n].Sym, bv[n].Text
		}
		rep.ASuffix, rep.BSuffix = len(av)-n, len(bv)-n
		return rep
	}
	if aerr != berr {
		rep.Diverged, rep.Kind, rep.Seq = true, DivergeError, n
		return rep
	}
	return rep
}
