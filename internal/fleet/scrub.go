// The divergence scrubber: a low-rate background loop that reuses the
// relative-debugging comparison (diff.go) as a continuous integrity check.
//
// The serve layer's health machinery hears about replicas that fail or slow
// down — but a replica whose memory was silently corrupted answers quickly,
// cleanly, and wrongly, and no latency or error signal will ever condemn
// it. The scrubber closes that blind spot: every Interval it picks one
// (group, scrub query, replica pair) by rotating cursors and diffs the
// pair's value streams. Identical streams cost two cheap read queries;
// diverging streams are a finding.
//
// Attribution needs a third opinion: a pairwise divergence says the
// replicas disagree, not which one is wrong. With three or more live
// replicas the scrubber runs one tie-break diff against the next replica
// around the ring — the side that ALSO disagrees with the tie-breaker is
// the culprit, majority-of-three style — and feeds the configured penalty
// into that replica's health score via serve.PenalizeTarget, so repeated
// divergence walks a corrupted replica through brownout into quarantine and
// out of the routing order. With exactly two live replicas the divergence
// is recorded (stats, LastDivergence) but unattributed: quarantining both
// sides of an argument nobody can referee would turn one corrupt page into
// a full outage.
package fleet

import (
	"context"
	"time"
)

// scrubLoop runs until Close. One comparison per tick, rotating across
// groups; a tick with no scrubbable group (none registered, no scrub
// queries, fewer than two live replicas) is skipped quietly.
func (r *Router) scrubLoop() {
	defer r.scrubWG.Done()
	ticker := time.NewTicker(r.cfg.Scrub.Interval)
	defer ticker.Stop()
	var cursor int
	for {
		select {
		case <-r.scrubStop:
			return
		case <-ticker.C:
			r.mu.RLock()
			groups := make([]*group, 0, len(r.groups))
			for _, g := range r.groups {
				if len(g.scrubQueries) > 0 {
					groups = append(groups, g)
				}
			}
			r.mu.RUnlock()
			if len(groups) == 0 {
				continue
			}
			g := groups[cursor%len(groups)]
			cursor++
			r.scrubGroup(g)
		}
	}
}

// scrubGroup runs one comparison for one group: the next scrub query
// against the next replica pair around the ring of live replicas.
func (r *Router) scrubGroup(g *group) {
	var live []*replica
	for _, rep := range g.reps {
		if !rep.isKilled() {
			live = append(live, rep)
		}
	}
	if len(live) < 2 {
		return
	}
	src := g.scrubQueries[int(g.scrubQIdx.Add(1)-1)%len(g.scrubQueries)]
	k := int(g.scrubPair.Add(1)-1) % len(live)
	a, b := live[k], live[(k+1)%len(live)]

	// Bound each scrub pass: a wedged replica must not park the scrubber
	// forever (the serve layer's own per-query timeout backstops this, but
	// the scrubber should stay cheap even against a misconfigured node).
	ctx, cancel := context.WithTimeout(context.Background(), scrubTimeout(r.cfg.Scrub.Interval))
	defer cancel()

	r.stats.scrubRuns.Add(1)
	rep := r.diffReplicas(ctx, g, src, nil, a, b)
	if !rep.Diverged {
		return
	}
	r.stats.divergences.Add(1)
	r.lastDiv.Store(rep)

	if len(live) < 3 {
		return // two-replica divergence: detected, recorded, unattributable
	}
	culprit := b
	tiebreak := live[(k+2)%len(live)]
	if d2 := r.diffReplicas(ctx, g, src, nil, a, tiebreak); d2.Diverged {
		// a disagrees with b AND with the tie-breaker: a is the odd one out.
		culprit = a
	}
	culprit.divergences.Add(1)
	// Feed the finding into the serve layer's health machinery: enough
	// consecutive divergences and the culprit quarantines exactly like a
	// faulting target would.
	_ = culprit.srv.PenalizeTarget(culprit.target, r.cfg.Scrub.Penalty)
}

// scrubTimeout bounds one scrub pass relative to the cadence.
func scrubTimeout(interval time.Duration) time.Duration {
	t := 10 * interval
	if t < time.Second {
		t = time.Second
	}
	return t
}
