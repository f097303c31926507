package memio_test

import (
	"errors"
	"testing"
	"time"

	"duel/internal/fakedbg"
	"duel/internal/memio"
)

// flakyDbg wraps the flat-RAM fake with a countdown of transient failures on
// its reads; writes and everything else pass straight through.
type flakyDbg struct {
	*fakedbg.Fake
	failN int
	calls int
}

func (d *flakyDbg) FetchTargetBytes(addr uint64, dst []byte) error {
	d.calls++
	if d.calls <= d.failN {
		return memio.ErrTransient
	}
	return d.Fake.FetchTargetBytes(addr, dst)
}

func newFlaky(failN int) (*flakyDbg, *memio.Accessor) {
	d := &flakyDbg{Fake: newFake(1 << 12), failN: failN}
	return d, memio.New(d, memio.Config{RetryBackoff: time.Microsecond})
}

// TestTransientRetryAbsorbs: with Retries=3 (default), up to three transient
// faults in a row are invisible to the caller, and the counters record them.
func TestTransientRetryAbsorbs(t *testing.T) {
	d, a := newFlaky(3)
	b, err := a.GetTargetBytes(d.Base+4, 4)
	if err != nil {
		t.Fatalf("read after 3 transients = %v, want success", err)
	}
	if b[0] != d.RAM[4] {
		t.Fatalf("read bytes wrong: %x", b)
	}
	s := a.Stats()
	if s.Transients != 3 || s.Retries != 3 {
		t.Fatalf("stats = transients %d retries %d, want 3/3", s.Transients, s.Retries)
	}
	if s.Reads != 1 {
		t.Fatalf("engine-visible reads = %d, want 1", s.Reads)
	}
}

// TestTransientRetryExhausted: a fault outlasting the retry budget surfaces
// as a transient memio.Fault.
func TestTransientRetryExhausted(t *testing.T) {
	d, a := newFlaky(100)
	_, err := a.GetTargetBytes(d.Base, 4)
	if err == nil {
		t.Fatal("persistent transient read succeeded")
	}
	var flt *memio.Fault
	if !errors.As(err, &flt) || flt.Kind != memio.KindTransient {
		t.Fatalf("error %v, want transient fault", err)
	}
	if !memio.IsTransient(err) {
		t.Fatalf("surfaced error is not IsTransient: %v", err)
	}
	var re *memio.RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("exhausted schedule not marked RetryExhaustedError: %v", err)
	}
	if re.Attempts != 4 {
		t.Fatalf("exhaustion records %d attempts, want 4 (1 try + 3 retries)", re.Attempts)
	}
	if !memio.IsRetryExhausted(err) {
		t.Fatalf("IsRetryExhausted = false for %v", err)
	}
	s := a.Stats()
	if s.Transients != 4 || s.Retries != 3 {
		t.Fatalf("stats = transients %d retries %d, want 4/3 (1 try + 3 retries)", s.Transients, s.Retries)
	}
}

// TestRetriesDisabled: Retries < 0 turns retrying off entirely.
func TestRetriesDisabled(t *testing.T) {
	d := &flakyDbg{Fake: newFake(1 << 12), failN: 1}
	a := memio.New(d, memio.Config{Retries: -1})
	if _, err := a.GetTargetBytes(d.Base, 4); !memio.IsTransient(err) {
		t.Fatalf("error %v, want immediate transient surface", err)
	}
	if s := a.Stats(); s.Retries != 0 {
		t.Fatalf("retries issued with retrying disabled: %d", s.Retries)
	}
}

// TestPermanentFaultNotRetried: unmapped faults are not transient, so they
// surface on the first attempt.
func TestPermanentFaultNotRetried(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{})
	_, err := a.GetTargetBytes(0x10, 4) // below base: unmapped
	var flt *memio.Fault
	if !errors.As(err, &flt) || flt.Kind != memio.KindUnmapped {
		t.Fatalf("error %v, want unmapped fault", err)
	}
	if s := a.Stats(); s.Transients != 0 || s.Retries != 0 {
		t.Fatalf("permanent fault counted as transient: %+v", s)
	}
	if memio.IsRetryExhausted(err) {
		t.Fatalf("permanent fault marked retry-exhausted: %v", err)
	}
}

// TestInterruptFailsFast: an interrupted accessor refuses work with
// ErrInterrupted and skips the retry loop; Resume restores it.
func TestInterruptFailsFast(t *testing.T) {
	f := newFake(1 << 12)
	a := memio.New(f, memio.Config{})
	a.Interrupt()
	_, err := a.GetTargetBytes(f.Base, 4)
	if !errors.Is(err, memio.ErrInterrupted) {
		t.Fatalf("interrupted read = %v, want ErrInterrupted", err)
	}
	if err := a.PutTargetBytes(f.Base, []byte{1}); !errors.Is(err, memio.ErrInterrupted) {
		t.Fatalf("interrupted write = %v, want ErrInterrupted", err)
	}
	a.Resume()
	if _, err := a.GetTargetBytes(f.Base, 4); err != nil {
		t.Fatalf("read after Resume = %v", err)
	}
}

// TestInterruptCutsRetryLoop: an interrupt arriving while the accessor backs
// off stops the retrying promptly instead of draining a huge retry budget.
func TestInterruptCutsRetryLoop(t *testing.T) {
	d := &flakyDbg{Fake: newFake(1 << 12), failN: 1 << 30}
	a := memio.New(d, memio.Config{Retries: 1 << 20, RetryBackoff: time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := a.GetTargetBytes(d.Base, 4)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Interrupt()
	select {
	case err := <-done:
		if !memio.IsTransient(err) && !errors.Is(err, memio.ErrInterrupted) {
			t.Fatalf("cut retry loop returned %v", err)
		}
		// An abandoned schedule is not a spent one: the interrupt cut it
		// short, so the error must NOT invite a higher-level retry.
		if memio.IsRetryExhausted(err) {
			t.Fatalf("interrupted retry loop marked exhausted: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Interrupt did not stop the retry loop")
	}
	a.Resume()
}
