package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"duel"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/fakedbg"
	"duel/internal/faultdbg"
	"duel/internal/mem"
	"duel/internal/serve"
)

// buildReplicaImage is the fleet-side clone of the serve suite's
// differential fixture: int x[10], a 5-node list at head, a native twice(k).
// Every replica of a group is built from this same recipe, so replicas are
// identical by construction — exactly the property Diff and the scrubber
// police.
func buildReplicaImage(t testing.TB) *fakedbg.Fake {
	t.Helper()
	f := fakedbg.New(ctype.ILP32, 1<<16)
	a := f.A

	vals := []int64{3, -1, 4, -1, 5, 9, -2, 6, 0, 7}
	x := f.MustVar("x", a.ArrayOf(a.Int, len(vals)))
	for i, v := range vals {
		if err := f.PutTargetBytes(x.Addr+uint64(4*i), mem.EncodeUint(uint64(v), 4)); err != nil {
			t.Fatal(err)
		}
	}

	node := a.NewStruct("node", false)
	if err := a.SetFields(node, []ctype.FieldSpec{
		{Name: "value", Type: a.Int},
		{Name: "next", Type: a.Ptr(node)},
	}); err != nil {
		t.Fatal(err)
	}
	f.Structs["node"] = node

	head := f.MustVar("head", a.Ptr(node))
	list := []int64{2, 7, 1, 7, 8}
	next := uint64(0)
	for i := len(list) - 1; i >= 0; i-- {
		addr, err := f.AllocTargetSpace(node.Size(), node.Align())
		if err != nil {
			t.Fatal(err)
		}
		if err := f.PutTargetBytes(addr, mem.EncodeUint(uint64(list[i]), 4)); err != nil {
			t.Fatal(err)
		}
		if err := f.PutTargetBytes(addr+4, mem.EncodeUint(next, 4)); err != nil {
			t.Fatal(err)
		}
		next = addr
	}
	if err := f.PutTargetBytes(head.Addr, mem.EncodeUint(next, 4)); err != nil {
		t.Fatal(err)
	}

	ft := a.FuncOf(a.Int, []ctype.Type{a.Int}, false)
	f.Vars["twice"] = dbgif.VarInfo{Name: "twice", Type: ft, Addr: 0x9000}
	f.Funcs[0x9000] = func(args []dbgif.Value) (dbgif.Value, error) {
		v := 2 * mem.DecodeInt(args[0].Bytes)
		return dbgif.Value{Type: a.Int, Bytes: mem.EncodeUint(uint64(v), 4)}, nil
	}
	return f
}

// newGroup builds n identical replicas, each on its own serve node, and
// registers them as group "g" on a fresh router. The fakes come back so
// tests can corrupt or inspect replica memory directly.
func newGroup(t testing.TB, cfg Config, n int) (*Router, []*fakedbg.Fake, []*serve.Server) {
	t.Helper()
	r := New(cfg)
	fakes := make([]*fakedbg.Fake, n)
	servers := make([]*serve.Server, n)
	reps := make([]Replica, n)
	for i := 0; i < n; i++ {
		fakes[i] = buildReplicaImage(t)
		servers[i] = serve.New(serve.Config{Workers: 2, QueueDepth: 64})
		servers[i].Register("t", fakes[i])
		reps[i] = Replica{Server: servers[i], Target: "t"}
	}
	if err := r.AddGroup("g", reps); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		for _, s := range servers {
			_ = s.Shutdown(context.Background())
		}
	})
	return r, fakes, servers
}

func texts(rs []duel.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.Text
	}
	return out
}

// TestFleetReadParity: a read through the router answers exactly like a
// direct session against the same image.
func TestFleetReadParity(t *testing.T) {
	r, _, _ := newGroup(t, Config{}, 3)
	ref := buildReplicaImage(t)
	ses := duel.MustNewSession(ref)

	for _, src := range []string{
		"x[..10]", "x[..10] >? 4", "head-->next->value", "+/x[..10]", "twice(x[2..5])",
	} {
		want, err := ses.Eval(src)
		if err != nil {
			t.Fatalf("session %q: %v", src, err)
		}
		got, err := r.Eval(context.Background(), "g", src)
		if err != nil {
			t.Fatalf("fleet %q: %v", src, err)
		}
		if fmt.Sprint(texts(got)) != fmt.Sprint(texts(want)) {
			t.Errorf("%q diverges: fleet %v, session %v", src, texts(got), texts(want))
		}
	}
	st := r.Stats()
	if st.Admitted != 5 || st.Completed != 5 || st.Failed != 0 {
		t.Errorf("stats after 5 clean reads: %+v", st)
	}
}

// TestFleetReadRotation: equally healthy replicas share the read load via
// round-robin instead of serializing on member zero.
func TestFleetReadRotation(t *testing.T) {
	r, _, servers := newGroup(t, Config{}, 3)
	for i := 0; i < 9; i++ {
		if _, err := r.Eval(context.Background(), "g", "x[0]"); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range servers {
		if n := s.Stats().Admitted; n != 3 {
			t.Errorf("replica %d served %d of 9 reads, want 3 (rotation broken)", i, n)
		}
	}
}

// TestFleetFailoverRetryExhausted: a replica whose substrate faults beyond
// the retry budget is failed over, and the query still succeeds with full
// accounting. Health tracking is disabled on the faulty node so routing
// keeps offering it first and every read genuinely pays the failover.
func TestFleetFailoverRetryExhausted(t *testing.T) {
	r := New(Config{})
	defer r.Close()

	faulty := serve.New(serve.Config{
		Workers: 2,
		Retry:   serve.RetryConfig{Disabled: true},
		Health:  serve.HealthConfig{Disabled: true},
	})
	// Every read faults transiently and retries are off: the fault surfaces
	// as retry exhaustion, the one substrate verdict that condemns the
	// replica rather than the query.
	faulty.Register("t", faultdbg.New(buildReplicaImage(t), faultdbg.Plan{
		Seed:  1,
		Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1.0},
	}))
	clean := serve.New(serve.Config{Workers: 2})
	clean.Register("t", buildReplicaImage(t))
	defer func() {
		_ = faulty.Shutdown(context.Background())
		_ = clean.Shutdown(context.Background())
	}()
	if err := r.AddGroup("g", []Replica{
		{Name: "sick", Server: faulty, Target: "t"},
		{Name: "ok", Server: clean, Target: "t"},
	}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		got, err := r.Eval(context.Background(), "g", "x[..10]")
		if err != nil {
			t.Fatalf("read %d through failover: %v", i, err)
		}
		if len(got) != 10 {
			t.Fatalf("read %d: %d values, want 10", i, len(got))
		}
	}
	st := r.Stats()
	if st.Failovers == 0 {
		t.Error("no failover recorded despite a permanently faulting replica")
	}
	if st.Completed != st.Admitted || st.Failed != 0 || st.NoReplica != 0 {
		t.Errorf("failover accounting: %+v", st)
	}
}

// TestFleetHardDownReplicaLosesRouting: on default serve settings, a replica
// whose every read faults browns out through its health score and routing
// stops offering it first, so a run of reads pays only the few failovers
// that drove the score down. No fail-fast layer may refuse queries behind
// health's back: a replica that stays "healthy" while refusing would keep
// leading the rotation and cost a failover on every third read.
func TestFleetHardDownReplicaLosesRouting(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	servers := make([]*serve.Server, 3)
	reps := make([]Replica, 3)
	for i := range servers {
		servers[i] = serve.New(serve.Config{Workers: 2})
		var d dbgif.Debugger = buildReplicaImage(t)
		if i == 0 {
			d = faultdbg.New(d, faultdbg.Plan{
				Seed:  1,
				Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1.0},
			})
		}
		servers[i].Register("t", d)
		reps[i] = Replica{Server: servers[i], Target: "t"}
	}
	defer func() {
		for _, s := range servers {
			_ = s.Shutdown(context.Background())
		}
	}()
	if err := r.AddGroup("g", reps); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 90; i++ {
		got, err := r.Eval(context.Background(), "g", "x[..10]")
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(got) != 10 {
			t.Fatalf("read %d: %d values, want 10", i, len(got))
		}
	}
	if st := r.Stats(); st.Failovers > 3 {
		t.Errorf("Failovers = %d over 90 reads, want <= 3 (the sick replica kept leading the rotation)", st.Failovers)
	}
	if h, err := servers[0].TargetHealth("t"); err != nil || h == serve.TargetHealthy {
		t.Errorf("sick replica health = %v (%v), want it out of %v", h, err, serve.TargetHealthy)
	}
}

// TestFleetNoReplicaAvailable: when every replica condemns itself the query
// surfaces typed ErrNoReplicaAvailable wrapping the last replica error.
func TestFleetNoReplicaAvailable(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	var servers []*serve.Server
	var reps []Replica
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{
			Workers: 2,
			Retry:   serve.RetryConfig{Disabled: true},
			Health:  serve.HealthConfig{Disabled: true},
		})
		s.Register("t", faultdbg.New(buildReplicaImage(t), faultdbg.Plan{
			Seed:  int64(i + 1),
			Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1.0},
		}))
		servers = append(servers, s)
		reps = append(reps, Replica{Server: s, Target: "t"})
	}
	defer func() {
		for _, s := range servers {
			_ = s.Shutdown(context.Background())
		}
	}()
	if err := r.AddGroup("g", reps); err != nil {
		t.Fatal(err)
	}

	_, err := r.Eval(context.Background(), "g", "x[0]")
	if !errors.Is(err, ErrNoReplicaAvailable) {
		t.Fatalf("want ErrNoReplicaAvailable, got %v", err)
	}
	if st := r.Stats(); st.NoReplica != 1 || st.Completed != 0 {
		t.Errorf("exhaustion accounting: %+v", st)
	}

	// A killed-out group exhausts without any attempt error.
	r2, _, _ := newGroup(t, Config{}, 2)
	for i := 0; i < 2; i++ {
		if err := r2.KillReplica("g", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r2.Eval(context.Background(), "g", "x[0]"); !errors.Is(err, ErrNoReplicaAvailable) {
		t.Fatalf("killed-out group: want ErrNoReplicaAvailable, got %v", err)
	}
}

// TestFleetFailoverBudget: a negative budget disables failover — one
// attempt, then typed exhaustion, even with a healthy replica waiting.
func TestFleetFailoverBudget(t *testing.T) {
	r := New(Config{FailoverBudget: -1})
	defer r.Close()
	faulty := serve.New(serve.Config{
		Workers: 2,
		Retry:   serve.RetryConfig{Disabled: true},
		Health:  serve.HealthConfig{Disabled: true},
	})
	faulty.Register("t", faultdbg.New(buildReplicaImage(t), faultdbg.Plan{
		Seed:  1,
		Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1.0},
	}))
	clean := serve.New(serve.Config{Workers: 2})
	clean.Register("t", buildReplicaImage(t))
	defer func() {
		_ = faulty.Shutdown(context.Background())
		_ = clean.Shutdown(context.Background())
	}()
	if err := r.AddGroup("g", []Replica{
		{Server: faulty, Target: "t"},
		{Server: clean, Target: "t"},
	}); err != nil {
		t.Fatal(err)
	}
	// Replica 0 leads the fresh rotation and always faults; with no budget
	// the second, healthy replica must never be consulted.
	_, err := r.Eval(context.Background(), "g", "x[0]")
	if !errors.Is(err, ErrNoReplicaAvailable) {
		t.Fatalf("want ErrNoReplicaAvailable with failover disabled, got %v", err)
	}
	if st := r.Stats(); st.Failovers != 0 {
		t.Errorf("failover happened despite a disabled budget: %+v", st)
	}
	if n := clean.Stats().Admitted; n != 0 {
		t.Errorf("healthy replica served %d queries with failover disabled", n)
	}
}

// TestFleetWriteFanout: a mutating query runs on every live replica and
// leaves them identical; the caller sees one replica's transcript.
func TestFleetWriteFanout(t *testing.T) {
	r, fakes, _ := newGroup(t, Config{}, 3)
	got, err := r.Eval(context.Background(), "g", "x[0] = 11")
	if err != nil {
		t.Fatalf("write fan-out: %v", err)
	}
	if len(got) != 1 || got[0].Text != "11" {
		t.Errorf("write transcript: %v", texts(got))
	}
	for i := range fakes {
		out, err := r.Diff(context.Background(), "g", "x[..10]", i, (i+1)%3)
		if err != nil {
			t.Fatal(err)
		}
		if out.Diverged {
			t.Errorf("replicas %d and %d diverged after a fan-out write: %v", i, (i+1)%3, out)
		}
	}
	// And the write actually landed.
	vals, err := r.Eval(context.Background(), "g", "x[0]")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0].Text != "11" {
		t.Errorf("post-write read: %v", texts(vals))
	}
	st := r.Stats()
	if st.WriteFanouts != 1 || st.WriteSkews != 0 {
		t.Errorf("fan-out accounting: %+v", st)
	}
}

// TestFleetWriteSkipsKilled: write-all targets live replicas only; a killed
// replica misses the write and the scrubber's Diff sees the skew after a
// revive.
func TestFleetWriteSkipsKilled(t *testing.T) {
	r, _, _ := newGroup(t, Config{}, 3)
	if err := r.KillReplica("g", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Eval(context.Background(), "g", "x[0] = 42"); err != nil {
		t.Fatalf("write with a killed member: %v", err)
	}
	if err := r.ReviveReplica("g", 2); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Diff(context.Background(), "g", "x[..10]", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || rep.Kind != DivergeValue || rep.Seq != 0 {
		t.Fatalf("revived replica should diverge at x[0]: %+v", rep)
	}
	if rep.AText != "42" {
		t.Errorf("live side at divergence: %q, want \"42\"", rep.AText)
	}
}

// TestFleetReadOnlyFastFail: a group with an immutable member refuses a
// mutating query before ANY replica applies it, and Diff refuses it too,
// whichever replica was registered first. The route follows the query's own
// write verdict; a read-only replica, which serves every query under its
// shared lock, must not make a write look like a read.
func TestFleetReadOnlyFastFail(t *testing.T) {
	for _, frozenFirst := range []bool{false, true} {
		name := "writable-first"
		if frozenFirst {
			name = "frozen-first"
		}
		t.Run(name, func(t *testing.T) { testReadOnlyFastFail(t, frozenFirst) })
	}
}

func testReadOnlyFastFail(t *testing.T, frozenFirst bool) {
	r := New(Config{})
	defer r.Close()
	writable := buildReplicaImage(t)
	frozen := buildReplicaImage(t)
	frozen.ReadOnly = true
	s1 := serve.New(serve.Config{Workers: 2})
	s1.Register("t", writable)
	s2 := serve.New(serve.Config{Workers: 2})
	s2.Register("t", frozen)
	defer func() {
		_ = s1.Shutdown(context.Background())
		_ = s2.Shutdown(context.Background())
	}()
	reps := []Replica{{Server: s1, Target: "t"}, {Server: s2, Target: "t"}}
	frozenAt, writableAt := 1, 0
	if frozenFirst {
		reps[0], reps[1] = reps[1], reps[0]
		frozenAt, writableAt = 0, 1
	}
	if err := r.AddGroup("g", reps); err != nil {
		t.Fatal(err)
	}

	// Rotation spreads reads, so a second attempt would be prepared on the
	// other replica: both must refuse.
	for i := 0; i < 2; i++ {
		_, err := r.Eval(context.Background(), "g", "x[0] = 99")
		if !errors.Is(err, ErrReadOnlyReplica) {
			t.Fatalf("write %d: want ErrReadOnlyReplica, got %v", i, err)
		}
		if !errors.Is(err, dbgif.ErrReadOnlyTarget) {
			t.Errorf("refusal does not unwrap to the capability error: %v", err)
		}
	}
	// Fast-fail means fast: the writable replica was never touched, and
	// every read — whichever replica serves it — still sees 3.
	for i := 0; i < 4; i++ {
		if vals, verr := r.Eval(context.Background(), "g", "x[0]"); verr != nil || len(vals) != 1 || vals[0].Text != "3" {
			t.Errorf("read %d after a refused write: %v %v", i, texts(vals), verr)
		}
	}
	if st := r.Stats(); st.ReadOnlyRefusals != 2 || st.WriteFanouts != 0 {
		t.Errorf("refusal accounting: %+v", st)
	}
	// Reads still flow to the frozen member.
	if _, err := r.Eval(context.Background(), "g", "x[..10]"); err != nil {
		t.Errorf("read against a group with a read-only member: %v", err)
	}
	// Diff of a write is refused from either side, before either runs it.
	for _, ab := range [][2]int{{frozenAt, writableAt}, {writableAt, frozenAt}} {
		if _, err := r.Diff(context.Background(), "g", "x[0] = 99", ab[0], ab[1]); !errors.Is(err, ErrDiffMutating) {
			t.Errorf("Diff(%d, %d) of a write: want ErrDiffMutating, got %v", ab[0], ab[1], err)
		}
	}
	if vals, verr := r.Eval(context.Background(), "g", "x[0]"); verr != nil || len(vals) != 1 || vals[0].Text != "3" {
		t.Errorf("read after refused diffs: %v %v", texts(vals), verr)
	}
}

// TestFleetFanoutError: when one replica of a fan-out fails, the caller
// gets every replica's outcome and the skew is counted.
func TestFleetFanoutError(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	good := serve.New(serve.Config{Workers: 2})
	good.Register("t", buildReplicaImage(t))
	bad := serve.New(serve.Config{
		Workers: 2,
		Retry:   serve.RetryConfig{Disabled: true},
		Health:  serve.HealthConfig{Disabled: true},
	})
	bad.Register("t", faultdbg.New(buildReplicaImage(t), faultdbg.Plan{
		Seed:  7,
		Rates: map[faultdbg.Kind]float64{faultdbg.Transient: 1.0},
	}))
	defer func() {
		_ = good.Shutdown(context.Background())
		_ = bad.Shutdown(context.Background())
	}()
	if err := r.AddGroup("g", []Replica{
		{Name: "good", Server: good, Target: "t"},
		{Name: "bad", Server: bad, Target: "t"},
	}); err != nil {
		t.Fatal(err)
	}

	_, err := r.Eval(context.Background(), "g", "x[0] = 5")
	var fe *FanoutError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FanoutError, got %v", err)
	}
	if len(fe.Outcomes) != 2 {
		t.Fatalf("outcomes: %+v", fe.Outcomes)
	}
	byName := map[string]error{}
	for _, o := range fe.Outcomes {
		byName[o.Replica] = o.Err
	}
	if byName["good"] != nil {
		t.Errorf("healthy replica failed the write: %v", byName["good"])
	}
	if byName["bad"] == nil {
		t.Error("faulting replica reported a clean write")
	}
	if !strings.Contains(fe.Error(), "1/2 replicas failed") {
		t.Errorf("fan-out error text: %q", fe.Error())
	}
	st := r.Stats()
	if st.WriteSkews != 1 || st.Failed != 1 {
		t.Errorf("skew accounting: %+v", st)
	}
}

// TestFleetKillReviveStatus: administrative kill state is visible, routing
// skips killed members, and revive restores them.
func TestFleetKillReviveStatus(t *testing.T) {
	r, _, servers := newGroup(t, Config{}, 3)
	if err := r.KillReplica("g", 0); err != nil {
		t.Fatal(err)
	}
	sts, err := r.Replicas("g")
	if err != nil {
		t.Fatal(err)
	}
	if !sts[0].Killed || sts[1].Killed || sts[2].Killed {
		t.Fatalf("kill state: %+v", sts)
	}
	if sts[0].Name != "g/0" {
		t.Errorf("default replica name: %q", sts[0].Name)
	}
	before := servers[0].Stats().Admitted
	for i := 0; i < 4; i++ {
		if _, err := r.Eval(context.Background(), "g", "x[0]"); err != nil {
			t.Fatal(err)
		}
	}
	if n := servers[0].Stats().Admitted - before; n != 0 {
		t.Errorf("killed replica served %d reads", n)
	}
	if err := r.ReviveReplica("g", 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Eval(context.Background(), "g", "x[0]"); err != nil {
			t.Fatal(err)
		}
	}
	if n := servers[0].Stats().Admitted - before; n == 0 {
		t.Error("revived replica never rejoined the rotation")
	}

	if err := r.KillReplica("g", 9); err == nil {
		t.Error("kill of an out-of-range replica succeeded")
	}
	if err := r.KillReplica("nope", 0); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("kill of an unknown group: %v", err)
	}
}

// TestFleetDiff: relative debugging pins a single corrupted value to its
// symbolic expression.
func TestFleetDiff(t *testing.T) {
	r, fakes, _ := newGroup(t, Config{}, 2)
	ctx := context.Background()

	rep, err := r.Diff(ctx, "g", "x[..10]", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged || rep.A.Count != 10 || rep.B.Count != 10 || rep.Seq != -1 {
		t.Fatalf("identical replicas reported divergence: %+v", rep)
	}
	if !strings.Contains(rep.String(), "no divergence") {
		t.Errorf("report text: %q", rep.String())
	}

	// Corrupt one word of replica 1 behind the router's back — the silent
	// failure mode no health signal would ever catch.
	x, _ := fakes[1].GetTargetVariable("x")
	if err := fakes[1].PutTargetBytes(x.Addr+4*3, mem.EncodeUint(9, 4)); err != nil {
		t.Fatal(err)
	}
	rep, err = r.Diff(ctx, "g", "x[..10]", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || rep.Kind != DivergeValue || rep.Seq != 3 {
		t.Fatalf("corruption at x[3] not pinned: %+v", rep)
	}
	if rep.AText != "-1" || rep.BText != "9" {
		t.Errorf("divergent values: A %q B %q, want -1 and 9", rep.AText, rep.BText)
	}
	if rep.ASuffix != 7 || rep.BSuffix != 7 {
		t.Errorf("suffix counts: +%d/+%d, want +7/+7", rep.ASuffix, rep.BSuffix)
	}
	if ld := r.LastDivergence(); ld == nil || ld.Seq != 3 {
		t.Errorf("LastDivergence not recorded: %+v", ld)
	}
	if !strings.Contains(rep.String(), "diverged at #3") {
		t.Errorf("report text: %q", rep.String())
	}

	// The corruption also shifts a selection's stream: x[3] flips from
	// rejected (-1) to selected (9), so replica 1's stream gains a value
	// and the streams disagree from the insertion point on.
	rep, err = r.Diff(ctx, "g", "x[..10] >? 0", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || rep.Kind != DivergeValue {
		t.Fatalf("selection over corrupt memory: %+v", rep)
	}
	if rep.A.Count+1 != rep.B.Count {
		t.Errorf("selection counts: %d vs %d, want one extra on the corrupt side", rep.A.Count, rep.B.Count)
	}
}

// TestFleetDiffRefusals: the diff API's typed refusals.
func TestFleetDiffRefusals(t *testing.T) {
	r, _, _ := newGroup(t, Config{}, 2)
	ctx := context.Background()
	if _, err := r.Diff(ctx, "g", "x[0] = 1", 0, 1); !errors.Is(err, ErrDiffMutating) {
		t.Errorf("mutating diff: %v", err)
	}
	if _, err := r.Diff(ctx, "g", "x[0]", 1, 1); err == nil {
		t.Error("diff of a replica against itself succeeded")
	}
	if _, err := r.Diff(ctx, "g", "x[0]", 0, 5); err == nil {
		t.Error("diff with an out-of-range replica succeeded")
	}
	if _, err := r.Diff(ctx, "nope", "x[0]", 0, 1); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("diff of an unknown group: %v", err)
	}
}

// TestFleetDiffKilledSide: a killed replica's side reports the kill as its
// outcome; against a live side that answers, that is a divergence.
func TestFleetDiffKilledSide(t *testing.T) {
	r, _, _ := newGroup(t, Config{}, 2)
	if err := r.KillReplica("g", 1); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Diff(context.Background(), "g", "x[..10]", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Diverged || rep.Kind != DivergeLength {
		t.Fatalf("live-vs-killed diff: %+v", rep)
	}
	if rep.B.Err == "" || !strings.Contains(rep.B.Err, "replica killed") {
		t.Errorf("killed side's error: %q", rep.B.Err)
	}
}

// TestFleetDiffTruncation: DiffLimit bounds what a comparison collects, and
// a truncated identical prefix is reported as such, not as proof of
// identity.
func TestFleetDiffTruncation(t *testing.T) {
	r, _, _ := newGroup(t, Config{DiffLimit: 3}, 2)
	rep, err := r.Diff(context.Background(), "g", "x[..10]", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Diverged || !rep.Truncated {
		t.Fatalf("truncated diff: %+v", rep)
	}
	if rep.A.Count != 3 || rep.B.Count != 3 {
		t.Errorf("collected %d/%d values under DiffLimit 3", rep.A.Count, rep.B.Count)
	}
	if !strings.Contains(rep.String(), "truncated") {
		t.Errorf("report text hides the truncation: %q", rep.String())
	}
}

// TestCompareStreams: the comparison core, kind by kind.
func TestCompareStreams(t *testing.T) {
	v := func(sym, text string) serve.StreamValue { return serve.StreamValue{Sym: sym, Text: text} }
	cases := []struct {
		name     string
		a, b     []serve.StreamValue
		ae, be   string
		kind     DivergenceKind
		seq      int
		diverged bool
	}{
		{name: "identical", a: []serve.StreamValue{v("x", "1")}, b: []serve.StreamValue{v("x", "1")}, kind: DivergeNone, seq: -1},
		{name: "empty both", kind: DivergeNone, seq: -1},
		{name: "value text", a: []serve.StreamValue{v("x", "1")}, b: []serve.StreamValue{v("x", "2")}, kind: DivergeValue, seq: 0, diverged: true},
		{name: "value sym", a: []serve.StreamValue{v("x", "1")}, b: []serve.StreamValue{v("y", "1")}, kind: DivergeValue, seq: 0, diverged: true},
		{name: "length", a: []serve.StreamValue{v("x", "1"), v("y", "2")}, b: []serve.StreamValue{v("x", "1")}, kind: DivergeLength, seq: 1, diverged: true},
		{name: "error", a: []serve.StreamValue{v("x", "1")}, b: []serve.StreamValue{v("x", "1")}, be: "boom", kind: DivergeError, seq: 1, diverged: true},
		{name: "same error", ae: "boom", be: "boom", kind: DivergeNone, seq: -1},
		{name: "value wins over error", a: []serve.StreamValue{v("x", "1")}, b: []serve.StreamValue{v("x", "2")}, ae: "boom", kind: DivergeValue, seq: 0, diverged: true},
	}
	for _, tc := range cases {
		rep := compareStreams(tc.a, tc.b, tc.ae, tc.be)
		if rep.Diverged != tc.diverged || rep.Kind != tc.kind || rep.Seq != tc.seq {
			t.Errorf("%s: got diverged=%v kind=%v seq=%d, want %v %v %d",
				tc.name, rep.Diverged, rep.Kind, rep.Seq, tc.diverged, tc.kind, tc.seq)
		}
		if rep.String() == "" {
			t.Errorf("%s: empty report text", tc.name)
		}
	}
	if DivergeValue.String() != "value" || DivergeNone.String() != "none" {
		t.Error("DivergenceKind names drifted")
	}
}

// TestFleetScrubberQuarantinesCorruptReplica: the acceptance scenario — a
// silently corrupted replica answers quickly and wrongly; the background
// scrubber catches the divergence, attributes it majority-of-three, and
// drives the culprit through the health machinery into quarantine.
func TestFleetScrubberQuarantinesCorruptReplica(t *testing.T) {
	r := New(Config{Scrub: ScrubConfig{Enabled: true, Interval: 2 * time.Millisecond}})
	fakes := make([]*fakedbg.Fake, 3)
	reps := make([]Replica, 3)
	servers := make([]*serve.Server, 3)
	for i := range fakes {
		fakes[i] = buildReplicaImage(t)
		servers[i] = serve.New(serve.Config{Workers: 2, QueueDepth: 64})
		servers[i].Register("t", fakes[i])
		reps[i] = Replica{Server: servers[i], Target: "t"}
	}
	t.Cleanup(func() {
		r.Close()
		for _, s := range servers {
			_ = s.Shutdown(context.Background())
		}
	})
	if err := r.AddGroup("g", reps, "x[..10]", "head-->next->value"); err != nil {
		t.Fatal(err)
	}

	// Corrupt replica 1: a write straight to its node (behind the router's
	// fan-out, and under that server's own target lock — the scrubber is
	// already reading) flips x[6] from -2 to 13. No query fails, no latency
	// moves — only the value stream betrays it.
	if _, err := servers[1].Eval(context.Background(), "t", "x[6] = 13"); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		sts, err := r.Replicas("g")
		if err != nil {
			t.Fatal(err)
		}
		if sts[1].Health == serve.TargetQuarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("corrupt replica never quarantined: %+v stats %+v", sts, r.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	st := r.Stats()
	if st.ScrubRuns == 0 || st.Divergences == 0 {
		t.Errorf("scrub accounting: %+v", st)
	}
	sts2, _ := r.Replicas("g")
	if sts2[1].Divergences == 0 {
		t.Errorf("divergences not attributed to the corrupt replica: %+v", sts2)
	}
	if sts2[0].Divergences != 0 || sts2[2].Divergences != 0 {
		t.Errorf("divergences misattributed to clean replicas: %+v", sts2)
	}
	if ld := r.LastDivergence(); ld == nil || ld.Kind == DivergeNone {
		t.Errorf("LastDivergence after scrub findings: %+v", ld)
	}

	// The quarantined replica is out of the routing order: reads keep
	// flowing and never see the corrupt values.
	for i := 0; i < 8; i++ {
		vals, err := r.Eval(context.Background(), "g", "x[6]")
		if err != nil {
			t.Fatalf("read with a quarantined member: %v", err)
		}
		if vals[0].Text != "-2" {
			t.Errorf("read %d served the corrupt value: %v", i, texts(vals))
		}
	}
}

// TestFleetEvalWithConcurrent: the router is safe for concurrent submitters
// (the -race audit of the routing path).
func TestFleetEvalWithConcurrent(t *testing.T) {
	r, _, _ := newGroup(t, Config{}, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := r.Eval(context.Background(), "g", "x[..10] >? 3"); err != nil {
					t.Errorf("concurrent read: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Admitted != 200 || st.Completed != 200 {
		t.Errorf("concurrent accounting: %+v", st)
	}
}

// TestFleetUnknownGroup: routing a nonexistent group is a typed error, not
// an accounting event.
func TestFleetUnknownGroup(t *testing.T) {
	r := New(Config{})
	defer r.Close()
	if _, err := r.Eval(context.Background(), "nope", "x[0]"); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("want ErrUnknownGroup, got %v", err)
	}
	if st := r.Stats(); st.Admitted != 0 {
		t.Errorf("unknown group counted as admitted: %+v", st)
	}
	if err := r.AddGroup("empty", nil); err == nil {
		t.Error("empty group registered")
	}
}
