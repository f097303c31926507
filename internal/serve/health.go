package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// health.go: per-target health scoring with brownout and quarantine — the
// serve layer's one fail-fast state machine.
//
// The score is a rate-based signal, so it sees a merely sick target (one
// that fails 30% of the time, or has gone slow) as well as a hard-down one,
// and it drives a graded response:
//
//	Healthy ──score < brownout──▶ Brownout ──score < quarantine──▶ Quarantined
//	   ▲                             │                                │
//	   │◀────score ≥ recover─────────┘                                │
//	   │                                                              │
//	   └──────────────── clean probe (one per ProbeInterval) ◀────────┘
//
// Brownout is the graded middle state: writes are shed (they take the
// exclusive target lock, amplifying a sick target's latency into pool-wide
// stalls) while read-only queries keep flowing under the shared read lock —
// partial service instead of a binary trip. Quarantine is the full stop:
// every query fails fast with ErrQuarantined except a single probe per
// ProbeInterval, whose clean completion re-admits the target.
//
// A hard-down target needs no rule of its own: with the defaults, a full
// score falls below the brownout line at the 6th consecutive infra failure
// (0.449) and below the quarantine line at the 11th (0.230), after which
// it costs one probe per ProbeInterval.
//
// The score is a lossy EWMA over per-query outcome samples (success 1,
// slow ½, infra failure 0) kept in a fixed-point atomic: racing updates may
// drop a sample, which only delays a transition by one query — a heuristic
// is cheaper than a serializer on every query's path.

// Health defaults. A zero HealthConfig enables tracking with these values;
// set Disabled to opt out entirely.
const (
	DefaultBrownoutScore   = 0.5
	DefaultQuarantineScore = 0.25
	DefaultRecoverScore    = 0.7
	DefaultHealthWindow    = 8
	DefaultProbeInterval   = 250 * time.Millisecond
)

// HealthConfig tunes per-target health tracking.
type HealthConfig struct {
	// Disabled turns health tracking off: no brownouts, no quarantines.
	Disabled bool
	// BrownoutScore is the score below which a healthy target browns out,
	// shedding mutating queries while read-only ones keep flowing.
	// 0 means DefaultBrownoutScore.
	BrownoutScore float64
	// QuarantineScore is the score below which the target quarantines,
	// failing every query fast except periodic probes.
	// 0 means DefaultQuarantineScore.
	QuarantineScore float64
	// RecoverScore is the score at which a browned-out target returns to
	// healthy. 0 means DefaultRecoverScore.
	RecoverScore float64
	// Window is the EWMA weight: each sample moves the score 1/Window of
	// the way toward the sample. 0 means DefaultHealthWindow.
	Window int
	// ProbeInterval is the quarantine probe cadence: at most one query per
	// interval is let through to test the target. 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// SlowLatency, when set, makes evaluations slower than it count as
	// half-failures, so a target that has gone slow (without erroring)
	// still browns out. 0 disables the latency signal.
	SlowLatency time.Duration
}

// HealthState is a target's position in the health state machine.
type HealthState int32

const (
	TargetHealthy HealthState = iota
	TargetBrownout
	TargetQuarantined
)

func (s HealthState) String() string {
	switch s {
	case TargetHealthy:
		return "healthy"
	case TargetBrownout:
		return "brownout"
	case TargetQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// healthScale is the fixed-point unit of the score atomics: a power of two
// so the EWMA step stays shift-friendly.
const healthScale = 1 << 20

// health tracks one target's score and drives its state machine. The score
// and state are atomics read on every admission; the mutex guards only
// transitions and the probe slot, so a healthy target's admit and observe
// take no lock.
type health struct {
	cfg HealthConfig
	now func() time.Time

	// Fixed-point thresholds, precomputed from cfg.
	brownFP, quarFP, recoverFP int64

	state   atomic.Int32 // HealthState
	scoreFP atomic.Int64 // score in [0, healthScale]

	mu        sync.Mutex
	lastProbe time.Time
	probing   bool

	quarantines   atomic.Int64 // transitions into quarantine
	brownouts     atomic.Int64 // transitions into brownout
	brownoutSheds atomic.Int64 // mutating queries shed while browned out
	fastFails     atomic.Int64 // queries refused while quarantined
	divergences   atomic.Int64 // divergence penalties applied (see penalize)
}

func newHealth(cfg HealthConfig, now func() time.Time) *health {
	if cfg.BrownoutScore == 0 {
		cfg.BrownoutScore = DefaultBrownoutScore
	}
	if cfg.QuarantineScore == 0 {
		cfg.QuarantineScore = DefaultQuarantineScore
	}
	if cfg.RecoverScore == 0 {
		cfg.RecoverScore = DefaultRecoverScore
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultHealthWindow
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if now == nil {
		now = time.Now
	}
	h := &health{
		cfg:       cfg,
		now:       now,
		brownFP:   int64(cfg.BrownoutScore * healthScale),
		quarFP:    int64(cfg.QuarantineScore * healthScale),
		recoverFP: int64(cfg.RecoverScore * healthScale),
	}
	h.scoreFP.Store(healthScale) // a fresh target is healthy
	return h
}

// admit gates one query at admission time. In healthy and brownout states it
// admits everything (brownout's write shedding happens after the worker has
// classified the query — the AST is not in hand here). Quarantined, it
// admits one probe per ProbeInterval and fails everything else fast.
func (h *health) admit() (probe bool, err error) {
	if h.cfg.Disabled || HealthState(h.state.Load()) != TargetQuarantined {
		return false, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if HealthState(h.state.Load()) != TargetQuarantined {
		return false, nil
	}
	if !h.probing && h.now().Sub(h.lastProbe) >= h.cfg.ProbeInterval {
		h.probing = true
		h.lastProbe = h.now()
		return true, nil
	}
	h.fastFails.Add(1)
	return false, ErrQuarantined
}

// cancelProbe releases the probe slot of a probe that never ran (shed in the
// queue, drained); the next admission past the interval may probe again.
func (h *health) cancelProbe() {
	h.mu.Lock()
	h.probing = false
	h.mu.Unlock()
}

// allowWrite reports whether mutating queries may run: only a fully healthy
// target takes writes (quarantine is enforced earlier, at admit).
func (h *health) allowWrite() bool {
	return h.cfg.Disabled || HealthState(h.state.Load()) == TargetHealthy
}

// observe feeds one evaluation outcome into the score and drives the state
// machine. probe marks a quarantine probe: its clean completion re-admits
// the target with a full score (one good probe restores service; the EWMA
// would otherwise need Window good queries that quarantine never admits),
// and its failure re-arms a full ProbeInterval from now, so a probe that
// took long to fail does not let the next one straight through.
func (h *health) observe(probe, infraFail, slow bool) {
	if h.cfg.Disabled {
		return
	}
	if probe {
		h.mu.Lock()
		h.probing = false
		if infraFail {
			h.lastProbe = h.now()
		} else if HealthState(h.state.Load()) == TargetQuarantined {
			h.scoreFP.Store(healthScale)
			h.state.Store(int32(TargetHealthy))
		}
		h.mu.Unlock()
		return
	}
	sample := int64(healthScale)
	switch {
	case infraFail:
		sample = 0
	case slow:
		sample = healthScale / 2
	}
	// Lossy EWMA: a racing pair may drop one sample — a one-query delay on
	// a transition, never corruption.
	old := h.scoreFP.Load()
	score := old + (sample-old)/int64(h.cfg.Window)
	h.scoreFP.Store(score)

	switch st := HealthState(h.state.Load()); {
	case st != TargetQuarantined && score < h.quarFP:
		h.mu.Lock()
		if HealthState(h.state.Load()) != TargetQuarantined {
			h.state.Store(int32(TargetQuarantined))
			// Full interval of quiet before the first probe.
			h.lastProbe = h.now()
			h.probing = false
			h.quarantines.Add(1)
		}
		h.mu.Unlock()
	case st == TargetHealthy && score < h.brownFP:
		h.mu.Lock()
		if HealthState(h.state.Load()) == TargetHealthy {
			h.state.Store(int32(TargetBrownout))
			h.brownouts.Add(1)
		}
		h.mu.Unlock()
	case st == TargetBrownout && score >= h.recoverFP:
		h.mu.Lock()
		if HealthState(h.state.Load()) == TargetBrownout {
			h.state.Store(int32(TargetHealthy))
		}
		h.mu.Unlock()
	}
}

// score returns the current health score scaled back to [0, 1].
func (h *health) score() float64 {
	return float64(h.scoreFP.Load()) / healthScale
}

// penalize feeds n synthetic infra-failure samples into the score, driving
// the ordinary state machine. This is the integrity channel into target
// health: the fleet layer's divergence scrubber calls it when a replica's
// value stream disagrees with its peers, so a silently-corrupted target —
// one that answers quickly and cleanly, just wrongly — degrades through
// brownout into quarantine exactly like a slow or faulting one. Each call
// counts as one divergence however many samples it spends.
func (h *health) penalize(n int) {
	h.divergences.Add(1)
	for i := 0; i < n; i++ {
		h.observe(false, true, false)
	}
}

// snapshot returns the state and counters for Stats aggregation.
func (h *health) snapshot() (st HealthState, quarantines, qFastFails, brownouts, bSheds int64) {
	return HealthState(h.state.Load()), h.quarantines.Load(),
		h.fastFails.Load(), h.brownouts.Load(), h.brownoutSheds.Load()
}
