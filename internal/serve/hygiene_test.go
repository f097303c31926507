package serve

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// classifierVerdict snapshots how one server classifies a matrix of queries
// through the pooled per-target classifier session.
func classifierVerdict(t *testing.T, srv *Server, queries []string) []string {
	t.Helper()
	out := make([]string, len(queries))
	for i, src := range queries {
		q, err := srv.Prepare("t", src)
		if err != nil {
			out[i] = "err:" + err.Error()
			continue
		}
		out[i] = strconv.FormatBool(q.Mutating)
	}
	return out
}

// TestClassifierSessionHygiene pins the pooled classifier session's
// no-alias-pollution contract: classifying queries that DEFINE session
// state (aliases, DUEL declarations) must leave no residue that changes how
// later queries classify. The oracle is a fresh server that never saw the
// polluting queries — both must classify the probe matrix identically, and
// the polluting sequence itself must be repeatable (a leak would make the
// second pass classify against a dirtier session than the first).
func TestClassifierSessionHygiene(t *testing.T) {
	polluting := []string{
		"y := x[2..5]",     // alias definition
		"int z; z = 42; z", // DUEL-declared variable
		"w := head-->next", // alias over a generator
		"\"abc\"[1]",       // string literal (session-interned)
	}
	probes := []string{
		"y = 5",    // would write the target IF alias y leaked
		"z",        // would resolve IF declaration z leaked
		"x[0] = 1", // stays mutating regardless
		"x[..10]",  // stays read-only regardless
		"w->value", // would walk the target IF alias w leaked
	}

	used := New(Config{Workers: 2})
	used.Register("t", buildDebuggee(t))
	fresh := New(Config{Workers: 2})
	fresh.Register("t", buildDebuggee(t))
	defer func() {
		_ = used.Shutdown(context.Background())
		_ = fresh.Shutdown(context.Background())
	}()

	first := classifierVerdict(t, used, polluting)
	again := classifierVerdict(t, used, polluting)
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("polluting query %q classifies unstably: %s then %s (session residue)",
				polluting[i], first[i], again[i])
		}
	}

	usedVerdict := classifierVerdict(t, used, probes)
	freshVerdict := classifierVerdict(t, fresh, probes)
	for i := range probes {
		if usedVerdict[i] != freshVerdict[i] {
			t.Errorf("probe %q: used server says %s, fresh server says %s — classifier session polluted",
				probes[i], usedVerdict[i], freshVerdict[i])
		}
	}
}

// TestClassifierHygieneConcurrent hammers the classifier from many
// goroutines mixing polluting and clean queries — the -race audit of the
// clsMu path plus the scrub — then re-checks the fresh-server oracle.
func TestClassifierHygieneConcurrent(t *testing.T) {
	used := New(Config{Workers: 4})
	used.Register("t", buildDebuggee(t))
	fresh := New(Config{Workers: 2})
	fresh.Register("t", buildDebuggee(t))
	defer func() {
		_ = used.Shutdown(context.Background())
		_ = fresh.Shutdown(context.Background())
	}()

	mixed := []string{"y := x[2..5]", "x[..10]", "int q; q", "x[0] = 1", "head-->next->value"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = used.Prepare("t", mixed[(g+i)%len(mixed)])
			}
		}(g)
	}
	wg.Wait()

	probes := []string{"y = 5", "q", "x[..10]", "x[0] = 1"}
	usedVerdict := classifierVerdict(t, used, probes)
	freshVerdict := classifierVerdict(t, fresh, probes)
	for i := range probes {
		if usedVerdict[i] != freshVerdict[i] {
			t.Errorf("after the storm, probe %q: used %s, fresh %s", probes[i], usedVerdict[i], freshVerdict[i])
		}
	}
}

// parseTimingCSV splits one TimingCSV render into its header and row
// fields, failing on any structural deviation.
func parseTimingCSV(t *testing.T, csv string) (header []string, row []int64) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("TimingCSV has %d lines, want 2: %q", len(lines), csv)
	}
	header = strings.Split(lines[0], ",")
	fields := strings.Split(lines[1], ",")
	if len(fields) != len(header) {
		t.Fatalf("row has %d fields for %d header columns: %q", len(fields), len(header), csv)
	}
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("torn or non-numeric field %q in %q", f, csv)
		}
		row = append(row, v)
	}
	return header, row
}

// TestTimingCSVHeaderStability pins the scraper contract: the exact header,
// the two-line shape, and the all-zero row of a fresh server.
func TestTimingCSVHeaderStability(t *testing.T) {
	const wantHeader = "completed,queue_ns_total,queue_ns_mean,eval_ns_total,eval_ns_mean"
	csv := Stats{}.TimingCSV()
	header, row := parseTimingCSV(t, csv)
	if got := strings.Join(header, ","); got != wantHeader {
		t.Fatalf("header drifted: %q, want %q", got, wantHeader)
	}
	for i, v := range row {
		if v != 0 {
			t.Errorf("fresh stats column %s = %d, want 0", header[i], v)
		}
	}

	// The means divide by completed; a row with traffic stays internally
	// consistent.
	csv = Stats{Completed: 4, QueueNanos: 100, EvalNanos: 40}.TimingCSV()
	_, row = parseTimingCSV(t, csv)
	if row[0] != 4 || row[1] != 100 || row[2] != 25 || row[3] != 40 || row[4] != 10 {
		t.Errorf("row: %v", row)
	}
}

// TestTimingCSVUnderConcurrentSubmits samples TimingCSV continuously while
// submitters hammer the server: every sample must keep the two-line
// five-field shape with purely numeric fields (no torn reads), the means
// must equal total/completed of the same snapshot, and completed must never
// decrease across samples.
func TestTimingCSVUnderConcurrentSubmits(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 128})
	srv.Register("t", buildDebuggee(t))
	defer func() { _ = srv.Shutdown(context.Background()) }()

	stop := make(chan struct{})
	var samplers sync.WaitGroup
	for s := 0; s < 2; s++ {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			var lastCompleted int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, row := parseTimingCSV(t, srv.Stats().TimingCSV())
				completed, qTot, qMean, eTot, eMean := row[0], row[1], row[2], row[3], row[4]
				if completed < lastCompleted {
					t.Errorf("completed went backwards: %d after %d", completed, lastCompleted)
				}
				lastCompleted = completed
				if completed > 0 {
					if qMean != qTot/completed || eMean != eTot/completed {
						t.Errorf("means disagree with their own snapshot: %v", row)
					}
				} else if qMean != 0 || eMean != 0 {
					t.Errorf("nonzero means with zero completed: %v", row)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := "x[..10] >? 3"
				if (g+i)%4 == 0 {
					src = "x[1] += 1"
				}
				if _, err := srv.Eval(context.Background(), "t", src); err != nil {
					t.Errorf("storm query: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	samplers.Wait()

	_, row := parseTimingCSV(t, srv.Stats().TimingCSV())
	if row[0] != 8*50 {
		t.Errorf("final completed %d, want %d", row[0], 8*50)
	}
}
