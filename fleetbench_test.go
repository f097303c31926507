package duel_test

// Fleet-layer benchmarks (see internal/fleet):
//
//	BenchmarkFleetFailover — read throughput through the replica router with
//	                         a healthy group (steady) versus a group whose
//	                         first replica condemns every read (degraded),
//	                         so queries that land there pay a failover
//
// Run: go test -bench=Fleet -benchmem
//
// The degraded/steady gap prices the failover path itself: the condemned
// attempt (a retry-exhausted read), the route re-rank, and the second
// submission. The CI bench-json compare watches both sub-benchmarks.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duel"
	"duel/internal/faultdbg"
	"duel/internal/fleet"
	"duel/internal/scenarios"
	"duel/internal/serve"
)

// fleetBenchGroup builds a 2-replica group. With degraded set, replica 0's
// substrate fails every read transiently with serve-layer retry off, so
// each query routed there exhausts the accessor's retries and fails over;
// health tracking is disabled on that server to keep it in the routing
// rotation (otherwise it would quarantine and the benchmark would measure
// routing around a dead node, not failover).
func fleetBenchGroup(b *testing.B, degraded bool) *fleet.Router {
	b.Helper()
	opts := duel.DefaultOptions()
	servers := make([]*serve.Server, 2)
	reps := make([]fleet.Replica, 2)
	for i := range servers {
		d, err := scenarios.BuildIntArray(256, func(i int) int64 { return int64(i%7) - 3 })
		if err != nil {
			b.Fatal(err)
		}
		cfg := serve.Config{Workers: 4, QueueDepth: 16, Session: opts}
		if degraded && i == 0 {
			cfg.Retry = serve.RetryConfig{Disabled: true}
			cfg.Health = serve.HealthConfig{Disabled: true}
			servers[i] = serve.New(cfg)
			servers[i].Register("bench", faultdbg.New(d, faultdbg.Plan{
				Seed:  int64(i + 1),
				Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1.0},
			}))
		} else {
			servers[i] = serve.New(cfg)
			servers[i].Register("bench", d)
		}
		reps[i] = fleet.Replica{Name: fmt.Sprintf("bench/%d", i), Server: servers[i], Target: "bench"}
	}
	r := fleet.New(fleet.Config{})
	if err := r.AddGroup("bench", reps); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		r.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, s := range servers {
			if err := s.Shutdown(ctx); err != nil {
				b.Errorf("shutdown: %v", err)
			}
		}
	})
	return r
}

// BenchmarkFleetFailover measures routed read throughput with every replica
// healthy (steady) and with replica 0 condemning every read so the router's
// rotation pays a failover on roughly half the queries (degraded). Reports
// failovers/op so the compare can see the failover rate alongside the
// throughput cost.
func BenchmarkFleetFailover(b *testing.B) {
	for _, degraded := range []bool{false, true} {
		name := "steady"
		if degraded {
			name = "degraded"
		}
		b.Run(name, func(b *testing.B) {
			const submitters = 4
			r := fleetBenchGroup(b, degraded)
			ctx := context.Background()
			// Warm both replicas' session pools.
			for i := 0; i < 4; i++ {
				if _, err := r.Eval(ctx, "bench", benchServeQuery); err != nil {
					b.Fatal(err)
				}
			}
			fst0 := r.Stats()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			var failed atomic.Int64
			per := b.N / submitters
			extra := b.N % submitters
			for g := 0; g < submitters; g++ {
				n := per
				if g < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := r.Eval(ctx, "bench", benchServeQuery); err != nil {
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
			fst := r.Stats()
			b.ReportMetric(float64(fst.Failovers-fst0.Failovers)/float64(b.N), "failovers/op")
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "queries/s")
		})
	}
}
