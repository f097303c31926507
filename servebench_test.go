package duel_test

// Serving-layer benchmarks (see internal/serve):
//
//	BenchmarkServeThroughput — concurrent queries/sec through the server's
//	                           admission path at 1, 4 and 16 workers
//	BenchmarkServeOverload   — shed rate when submitters outrun a tiny pool
//
// Run: go test -bench=Serve -benchmem
//
// Contention profiling: the serializers on the read path were named by
// running these benchmarks with the runtime's lock profilers,
//
//	go test -run=NONE -bench ServeThroughput -benchtime 2000x \
//	    -mutexprofile serve-mutex.prof -blockprofile serve-block.prof .
//	go tool pprof serve-mutex.prof   # who held contended locks
//	go tool pprof serve-block.prof   # who waited on channels/locks
//
// (the CI bench job produces and uploads both profiles as artifacts).
// That profile is what motivated the serve layer's atomic stats, worker
// session affinity, epoch-based cache flush and lock-free breaker fast
// path; TestServeReadScaling below keeps the result honest.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duel"
	"duel/internal/scenarios"
	"duel/internal/serve"
)

// benchServer stands up a server over an int-array debuggee.
func benchServer(b testing.TB, workers, queueDepth int) *serve.Server {
	b.Helper()
	d, err := scenarios.BuildIntArray(256, func(i int) int64 { return int64(i%7) - 3 })
	if err != nil {
		b.Fatal(err)
	}
	opts := duel.DefaultOptions()
	srv := serve.New(serve.Config{Workers: workers, QueueDepth: queueDepth, Session: opts})
	srv.Register("bench", d)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

const benchServeQuery = "x[..64] >? 1000"

// BenchmarkServeThroughput measures end-to-end concurrent query throughput
// through the serving layer — admission, session pool, read lock, governed
// evaluation — with the submitter count pinned to the worker count so the
// queue absorbs bursts instead of shedding.
func BenchmarkServeThroughput(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv := benchServer(b, workers, 4*workers)
			ctx := context.Background()
			// Warm the session pool.
			if _, err := srv.Eval(ctx, "bench", benchServeQuery); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			var failed atomic.Int64
			per := b.N / workers
			extra := b.N % workers
			for g := 0; g < workers; g++ {
				n := per
				if g < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := srv.Eval(ctx, "bench", benchServeQuery); err != nil {
							failed.Add(1)
						}
					}
				}(n)
			}
			wg.Wait()
			elapsed := time.Since(start)
			if f := failed.Load(); f > 0 {
				b.Fatalf("%d/%d queries failed", f, b.N)
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
		})
	}
}

// BenchmarkServeOverload measures admission control under deliberate
// overload: 32 submitters against one worker and a one-slot queue. Sheds
// are expected — the point is that they are fast, typed refusals instead
// of deadlocks — and the shed fraction is reported per run.
func BenchmarkServeOverload(b *testing.B) {
	srv := benchServer(b, 1, 1)
	ctx := context.Background()
	if _, err := srv.Eval(ctx, "bench", benchServeQuery); err != nil {
		b.Fatal(err)
	}
	const submitters = 32
	var shed, other atomic.Int64
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				_, err := srv.Eval(ctx, "bench", benchServeQuery)
				switch {
				case errors.Is(err, serve.ErrOverloaded):
					shed.Add(1)
				case err != nil:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if o := other.Load(); o > 0 {
		b.Fatalf("%d queries failed with non-overload errors", o)
	}
	b.ReportMetric(float64(shed.Load())/float64(b.N), "shed/op")
}

// serveThroughput measures read-only queries/s through srv: `workers`
// submitters evaluate the benchmark query in a closed loop for roughly `d`,
// after a warmup pass that populates the session pool.
func serveThroughput(t testing.TB, srv *serve.Server, workers int, d time.Duration) float64 {
	ctx := context.Background()
	var warm sync.WaitGroup
	for g := 0; g < workers; g++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			for i := 0; i < 8; i++ {
				if _, err := srv.Eval(ctx, "bench", benchServeQuery); err != nil {
					t.Errorf("warmup: %v", err)
					return
				}
			}
		}()
	}
	warm.Wait()

	var done atomic.Bool
	var n atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if _, err := srv.Eval(ctx, "bench", benchServeQuery); err != nil {
					t.Errorf("eval: %v", err)
					return
				}
				n.Add(1)
			}
		}()
	}
	time.Sleep(d)
	done.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	st := srv.Stats()
	if st.Completed > st.Admitted {
		t.Errorf("inconsistent stats after run: %+v", st)
	}
	return float64(n.Load()) / elapsed.Seconds()
}

// BenchmarkServeStream measures the streaming submit path: concurrent reads
// delivered value by value through SubmitStream instead of collected
// transcripts. Unlike benchServeQuery (which filters everything out so
// throughput isolates eval cost), this query emits a value per element so
// the per-value emit path is actually on the clock.
func BenchmarkServeStream(b *testing.B) {
	const workers = 4
	const streamQuery = "x[..16]"
	srv := benchServer(b, workers, 4*workers)
	ctx := context.Background()
	if _, err := srv.Eval(ctx, "bench", streamQuery); err != nil {
		b.Fatal(err)
	}
	var values atomic.Int64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	var failed atomic.Int64
	per := b.N / workers
	extra := b.N % workers
	for g := 0; g < workers; g++ {
		n := per
		if g < extra {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				err := srv.SubmitStream(ctx, "bench", streamQuery, serve.SubmitOptions{},
					func(serve.StreamValue) error {
						values.Add(1)
						return nil
					})
				if err != nil {
					failed.Add(1)
				}
			}
		}(n)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if f := failed.Load(); f > 0 {
		b.Fatalf("%d/%d queries failed", f, b.N)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
	b.ReportMetric(float64(values.Load())/float64(b.N), "values/op")
}

// TestServeReadScaling is the scaling regression test for ROADMAP Open
// item 1: on a multi-core host, 4 workers must deliver materially more
// read-only queries/s than 1 worker. The serve layer's whole point is that
// read-dominated DUEL traffic shares the target under a read lock with no
// per-query serializer — a regression that re-flattens the curve (a shared
// mutex on the hot path, an accidental exclusive lock for read queries)
// fails here long before a human reads a benchmark chart.
//
// Skipped under -short, on hosts without 4 CPUs (a single core serializes
// workers no matter what the code does), and under -race (the race
// runtime's own synchronization dominates the schedule).
func TestServeReadScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement: skipped under -short")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("scaling measurement needs >=4 CPUs, have GOMAXPROCS=%d", p)
	}
	if c := runtime.NumCPU(); c < 4 {
		// GOMAXPROCS can be forced above the hardware by the environment;
		// only real cores run workers in parallel.
		t.Skipf("scaling measurement needs >=4 CPUs, have %d", c)
	}
	if raceEnabled {
		t.Skip("scaling measurement: skipped under -race")
	}
	const window = 300 * time.Millisecond
	q1 := serveThroughput(t, benchServer(t, 1, 4), 1, window)
	q4 := serveThroughput(t, benchServer(t, 4, 16), 4, window)
	ratio := q4 / q1
	t.Logf("read-only throughput: workers=1 %.0f q/s, workers=4 %.0f q/s (%.2fx)", q1, q4, ratio)
	// The acceptance bar is 2.5x on an idle 4-core host; assert a safety
	// margin below it so a loaded CI neighbor cannot flake the build while
	// a true re-serialization (ratio ~1.0) still fails decisively.
	if ratio < 1.8 {
		t.Errorf("workers=4 delivers only %.2fx the throughput of workers=1 (%.0f vs %.0f q/s); the read path has re-serialized", ratio, q4, q1)
	}
}
