package serve

import (
	"context"
	"sync/atomic"
	"time"
)

// retry.go: the serve layer's retry budget.
//
// memio already retries transient faults per memory operation; what reaches
// the serve layer is a query whose whole low-level schedule was spent
// (memio.RetryExhaustedError). Re-running such a query once on a fresh
// session often succeeds — a different pooled accessor, a fault that has
// passed — but unconditional retries double the offered load on a target
// exactly when it is sickest. A refusal (quarantine, overload, drain) never
// ran and is not retried. The classic answer is a token-bucket
// retry budget (retries capped to a fraction of recent successful traffic):
// isolated faults get retried essentially always, correlated failure storms
// exhaust the bucket and degrade to single attempts.

// Retry defaults. A zero RetryConfig enables retries with these values; set
// Disabled to opt out.
const (
	DefaultRetryRatio   = 0.1 // retry capacity earned per completed query
	DefaultRetryBurst   = 8   // bucket cap, in whole retries
	DefaultRetryBackoff = time.Millisecond
)

// RetryConfig tunes the per-target serve-layer retry budget.
type RetryConfig struct {
	// Disabled turns serve-layer retries off entirely.
	Disabled bool
	// Ratio is the fraction of a retry token earned per completed query
	// (0 means DefaultRetryRatio, i.e. retries ≤ ~10% of recent traffic).
	Ratio float64
	// Burst caps the bucket in whole retries (0 means DefaultRetryBurst).
	// The bucket starts full so isolated faults retry from the first query.
	Burst int
	// Backoff is the pause before the retry attempt (0 means
	// DefaultRetryBackoff); it is cut short by the caller's context.
	Backoff time.Duration
}

// retryScale is the fixed-point unit: one whole retry token.
const retryScale = 1 << 20

// retryBudget is a lock-free token bucket. earn() on the completion path is
// lossy in the same way the health score is: a racing pair of earns may
// overshoot the cap by one sample, which take() tolerates.
type retryBudget struct {
	disabled bool
	earnFP   int64
	capFP    int64
	backoff  time.Duration
	tokens   atomic.Int64
}

func newRetryBudget(cfg RetryConfig) *retryBudget {
	b := &retryBudget{disabled: cfg.Disabled}
	ratio := cfg.Ratio
	if ratio <= 0 {
		ratio = DefaultRetryRatio
	}
	burst := cfg.Burst
	if burst <= 0 {
		burst = DefaultRetryBurst
	}
	b.backoff = cfg.Backoff
	if b.backoff <= 0 {
		b.backoff = DefaultRetryBackoff
	}
	b.earnFP = int64(ratio * retryScale)
	b.capFP = int64(burst) * retryScale
	b.tokens.Store(b.capFP)
	return b
}

// earn credits the budget for one completed query.
func (b *retryBudget) earn() {
	if b.disabled {
		return
	}
	if t := b.tokens.Load(); t < b.capFP {
		b.tokens.Add(b.earnFP)
	}
}

// take spends one whole retry token; false means the budget is dry and the
// caller must surface the original failure instead of retrying.
func (b *retryBudget) take() bool {
	if b.disabled {
		return false
	}
	for {
		t := b.tokens.Load()
		if t < retryScale {
			return false
		}
		if b.tokens.CompareAndSwap(t, t-retryScale) {
			return true
		}
	}
}

// sleepCtx pauses for d unless ctx dies first; it reports whether the full
// pause elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
