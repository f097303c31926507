package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"time"

	"duel"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/debugger"
	"duel/internal/faultdbg"
	"duel/internal/fleet"
	"duel/internal/scenarios"
	"duel/internal/serve"
	"duel/internal/target"
)

// serveWorkers is the worker count of every serve node: the benchmark is
// sized for a 2-core host. Every other serve and fleet setting is the
// product default.
const serveWorkers = 2

// workload is one benchmark input: how many closed-loop clients drive it
// and how to build its images, servers and query streams from a seed.
type workload struct {
	name    string
	clients int
	// build sets the workload up, including one warm-up pass of each
	// query shape. A non-nil tracer instruments every layer boundary.
	build func(seed int64, tr *tracer) (instance, error)
	// ladder builds a fresh image of the workload's substrate and returns
	// it with the workload's representative query.
	ladder func(seed int64) (dbgif.Debugger, string, error)
}

// instance is a built workload.
type instance interface {
	// request runs one request for c, records its timings in c and
	// checks every output; a non-nil error counts the request as failed.
	request(c *client) error
	// counters snapshots the serve and fleet counters.
	counters() counters
	close() error
}

var workloads = []*workload{
	{name: "symtab-scan", clients: 2, build: buildSymtabScan, ladder: symtabLadder},
	{name: "fleet-rw", clients: 2, build: func(seed int64, tr *tracer) (instance, error) {
		return buildFleet(seed, tr, false)
	}, ladder: fleetLadder},
	{name: "fleet-degraded", clients: 2, build: func(seed int64, tr *tracer) (instance, error) {
		return buildFleet(seed, tr, true)
	}, ladder: fleetLadder},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// counters are the serve and fleet Stats, summed over every node.
type counters struct {
	Serve serve.Stats `json:"serve"`
	Fleet fleet.Stats `json:"fleet"`
}

// sub returns a - b field by field (every field is an int64 counter).
func (a counters) sub(b counters) counters {
	out := a
	for _, p := range [][3]reflect.Value{
		{reflect.ValueOf(&out.Serve).Elem(), reflect.ValueOf(a.Serve), reflect.ValueOf(b.Serve)},
		{reflect.ValueOf(&out.Fleet).Elem(), reflect.ValueOf(a.Fleet), reflect.ValueOf(b.Fleet)},
	} {
		for i := 0; i < p[0].NumField(); i++ {
			p[0].Field(i).SetInt(p[1].Field(i).Int() - p[2].Field(i).Int())
		}
	}
	return out
}

// addServe adds one node's Stats into c.
func (c *counters) addServe(st serve.Stats) {
	sum := reflect.ValueOf(&c.Serve).Elem()
	v := reflect.ValueOf(st)
	for i := 0; i < sum.NumField(); i++ {
		sum.Field(i).SetInt(sum.Field(i).Int() + v.Field(i).Int())
	}
}

// serveSessionOptions are the options a serve node with a zero
// Config.Session gives its pooled sessions: serve.New normalizes the zero
// Options and then fills in its own step and time budgets. The traced run
// builds its sessions with them; TestTracedServeSessionsMatchRegister
// checks that they evaluate as a Register-built node's do.
func serveSessionOptions() duel.Options {
	o := duel.DefaultOptions()
	o.Eval.MaxSteps = serve.DefaultMaxSteps
	o.Eval.Timeout = serve.DefaultTimeout
	return o
}

// newServer starts a serve node hosting d as target name. Untraced, it is
// the product path (Register); traced, the node builds the same sessions
// through a factory so the tracer can instrument them.
func newServer(name string, d dbgif.Debugger, tr *tracer) *serve.Server {
	srv := serve.New(serve.Config{Workers: serveWorkers})
	if tr == nil {
		srv.Register(name, d)
		return srv
	}
	l := tr.newLane()
	sub := tr.substrate(d, l)
	srv.RegisterFactory(name, func() (*duel.Session, error) {
		ses, err := duel.NewSession(sub, serveSessionOptions())
		if err != nil {
			return nil, err
		}
		tr.adopt(ses, l)
		return ses, nil
	})
	return srv
}

func shutdown(servers ...*serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, s := range servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// ---- symtab-scan ---------------------------------------------------------

const (
	symtabBuckets  = 65536
	symtabWindow   = 1024
	symtabMaxChain = 8    // chain lengths are uniform in 0..8, about 4 nodes
	symtabScopes   = 1000 // scopes are uniform in 0..999
	symtabK        = 989  // scope > K holds for 1 % of nodes
)

// symtabImage is "struct symbol *hash[65536]" with seeded chains, plus the
// benchmark's own model of it: the scopes of each chain, head first.
type symtabImage struct {
	d      *debugger.Debugger
	chains [][]int32
}

func buildSymtabImage(seed int64) (*symtabImage, error) {
	rng := rand.New(rand.NewSource(seed))
	img := &symtabImage{chains: make([][]int32, symtabBuckets)}
	scopes := make([]int32, 0, symtabBuckets*(symtabMaxChain+1)/2)
	for b := range img.chains {
		n := rng.Intn(symtabMaxChain + 1)
		for j := 0; j < n; j++ {
			scopes = append(scopes, int32(rng.Intn(symtabScopes)))
		}
		img.chains[b] = scopes[len(scopes)-n : len(scopes) : len(scopes)]
	}
	p, err := target.NewProcess(target.Config{
		Model:     ctype.ILP32,
		DataSize:  4*symtabBuckets + 1<<16,
		HeapSize:  16*len(scopes) + 1<<16,
		StackSize: 1 << 14,
	})
	if err != nil {
		return nil, err
	}
	a := p.Arch
	sym := p.DeclareStruct("symbol", false)
	if err := a.SetFields(sym, []ctype.FieldSpec{
		{Name: "name", Type: a.Ptr(a.Char)},
		{Name: "scope", Type: a.Int},
		{Name: "next", Type: a.Ptr(sym)},
	}); err != nil {
		return nil, err
	}
	hash, err := p.DefineGlobal("hash", a.ArrayOf(a.Ptr(sym), symtabBuckets))
	if err != nil {
		return nil, err
	}
	name, err := p.NewCString("sym")
	if err != nil {
		return nil, err
	}
	// Fields are stored straight into the segments (the image is built
	// before any debugger attaches), four bytes each in ILP32.
	put := func(addr uint64, v uint64) error {
		for _, seg := range []struct {
			base uint64
			data []byte
		}{{p.Data.Base, p.Data.Data}, {p.Heap.Base, p.Heap.Data}} {
			if addr >= seg.base && addr+4 <= seg.base+uint64(len(seg.data)) {
				binary.LittleEndian.PutUint32(seg.data[addr-seg.base:], uint32(v))
				return nil
			}
		}
		return fmt.Errorf("symtab image: address 0x%x outside data and heap", addr)
	}
	nameOff, scopeOff, nextOff := uint64(sym.Fields[0].Off), uint64(sym.Fields[1].Off), uint64(sym.Fields[2].Off)
	for b, chain := range img.chains {
		var head uint64
		for j := len(chain) - 1; j >= 0; j-- {
			node, err := p.Alloc(sym.Size(), sym.Align())
			if err != nil {
				return nil, err
			}
			for _, f := range [][2]uint64{{nameOff, name}, {scopeOff, uint64(chain[j])}, {nextOff, head}} {
				if err := put(node+f[0], f[1]); err != nil {
					return nil, err
				}
			}
			head = node
		}
		if err := put(hash.Addr+4*uint64(b), head); err != nil {
			return nil, err
		}
	}
	img.d = debugger.New(p)
	return img, nil
}

func symtabQuery(a int) string {
	return fmt.Sprintf("(hash[%d..%d] !=? 0)-->next->scope >? %d", a, a+symtabWindow-1, symtabK)
}

// expect lists, in output order, the nodes of the window at a that the
// query must emit: bucket, depth in the chain, scope.
func (img *symtabImage) expect(a int, out []want) []want {
	for b := a; b < a+symtabWindow; b++ {
		for j, s := range img.chains[b] {
			if s > symtabK {
				out = append(out, want{int32(b), int32(j), int64(s)})
			}
		}
	}
	return out
}

// want is one expected value: an index pair and the value's integer text.
type want struct {
	a, b int32
	v    int64
}

type symtabScan struct {
	img *symtabImage
	srv *serve.Server
	tr  *tracer
}

func buildSymtabScan(seed int64, tr *tracer) (instance, error) {
	img, err := buildSymtabImage(seed)
	if err != nil {
		return nil, err
	}
	s := &symtabScan{img: img, srv: newServer("symtab", img.d, tr), tr: tr}
	if err := s.request(newClient(-1, seed)); err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up query: %w", err), s.close())
	}
	return s, nil
}

func (s *symtabScan) request(c *client) error {
	a := c.rng.Intn(symtabBuckets - symtabWindow + 1)
	q := symtabQuery(a)
	c.want = s.img.expect(a, c.want[:0])
	k := 0
	var mismatch error
	submit := time.Now()
	emit := func(v serve.StreamValue) error {
		if k == 0 {
			c.observe(&c.first, time.Since(submit))
		}
		if mismatch == nil {
			if k >= len(c.want) {
				mismatch = fmt.Errorf("%s: extra value %s", q, v.Line())
			} else if w := c.want[k]; !c.textIs(v.Text, w.v) || !c.symtabSymIs(v.Sym, w) {
				mismatch = fmt.Errorf("%s: value %d is %s, want bucket %d depth %d scope %d", q, k, v.Line(), w.a, w.b, w.v)
			}
		}
		k++
		return nil
	}
	var err error
	if s.tr == nil {
		err = s.srv.SubmitStream(context.Background(), "symtab", q, serve.SubmitOptions{}, emit)
	} else {
		sp := s.tr.begin(&s.tr.client, layerServe)
		err = s.srv.SubmitStream(context.Background(), "symtab", q, serve.SubmitOptions{}, emit)
		s.tr.end(&s.tr.client, sp)
	}
	c.observe(&c.lat, time.Since(submit))
	c.values += int64(k)
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", q, err)
	case mismatch != nil:
		return mismatch
	case k != len(c.want):
		return fmt.Errorf("%s: %d values, want %d", q, k, len(c.want))
	}
	return nil
}

// symtabSymIs reports whether s is the symbolic path DUEL gives the node w:
// the bucket, then one "->next" per link followed up to two links and
// "-->next[[depth]]" beyond, then the field.
func (c *client) symtabSymIs(s string, w want) bool {
	c.buf = append(c.buf[:0], "hash["...)
	c.buf = strconv.AppendInt(c.buf, int64(w.a), 10)
	c.buf = append(c.buf, ']')
	if w.b <= 2 {
		for i := int32(0); i < w.b; i++ {
			c.buf = append(c.buf, "->next"...)
		}
	} else {
		c.buf = append(c.buf, "-->next[["...)
		c.buf = strconv.AppendInt(c.buf, int64(w.b), 10)
		c.buf = append(c.buf, "]]"...)
	}
	c.buf = append(c.buf, "->scope"...)
	return string(c.buf) == s
}

// textIs reports whether s is the decimal text of v.
func (c *client) textIs(s string, v int64) bool {
	c.buf = strconv.AppendInt(c.buf[:0], v, 10)
	return string(c.buf) == s
}

func (s *symtabScan) counters() counters {
	var c counters
	c.addServe(s.srv.Stats())
	return c
}

func (s *symtabScan) close() error { return shutdown(s.srv) }

func symtabLadder(seed int64) (dbgif.Debugger, string, error) {
	img, err := buildSymtabImage(seed)
	if err != nil {
		return nil, "", err
	}
	return img.d, symtabQuery(rand.New(rand.NewSource(seed)).Intn(symtabBuckets - symtabWindow + 1)), nil
}

// ---- fleet-rw and fleet-degraded -----------------------------------------

const (
	fleetGroup      = "x"
	fleetReplicas   = 3
	fleetInts       = 1 << 20
	fleetWindow     = 8
	fleetWritePct   = 10
	fleetFaultShare = 0.1 // transient read faults on replica 0 when degraded
)

// fleetFill is the seeded content of every replica's int x[1<<20]: values
// in -1000..1000, cheap enough for the oracle to recompute per read.
func fleetFill(seed int64) func(i int) int64 {
	mix := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	return func(i int) int64 {
		h := (uint64(i) + mix) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
		return int64(h%2001) - 1000
	}
}

type fleetRW struct {
	fill    func(int) int64
	writes  bool
	router  *fleet.Router
	servers []*serve.Server
	tr      *tracer
}

func buildFleet(seed int64, tr *tracer, degraded bool) (instance, error) {
	f := &fleetRW{fill: fleetFill(seed), writes: !degraded, router: fleet.New(fleet.Config{}), tr: tr}
	var reps []fleet.Replica
	for i := 0; i < fleetReplicas; i++ {
		d, err := scenarios.BuildIntArray(fleetInts, f.fill)
		if err != nil {
			return nil, errors.Join(err, f.close())
		}
		var sub dbgif.Debugger = d
		if degraded && i == 0 {
			plan := faultdbg.Plan{Seed: seed, Rates: map[faultdbg.Kind]float64{faultdbg.Transient: fleetFaultShare}}
			sub = faultdbg.New(d, plan.DeriveReplica(fleetGroup, i))
		}
		srv := newServer(fleetGroup, sub, tr)
		f.servers = append(f.servers, srv)
		reps = append(reps, fleet.Replica{Server: srv, Target: fleetGroup})
	}
	if err := f.router.AddGroup(fleetGroup, reps); err != nil {
		return nil, errors.Join(err, f.close())
	}
	warm := newClient(-1, seed)
	err := f.read(warm)
	if f.writes && err == nil {
		err = f.write(warm)
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("warm-up: %w", err), f.close())
	}
	return f, nil
}

func (f *fleetRW) request(c *client) error {
	if f.writes && c.rng.Intn(100) < fleetWritePct {
		return f.write(c)
	}
	return f.read(c)
}

// read submits x[a..a+7] >? t and checks it against the fill.
func (f *fleetRW) read(c *client) error {
	a := c.rng.Intn(fleetInts - fleetWindow + 1)
	t := int64(c.rng.Intn(1001) - 500)
	q := fmt.Sprintf("x[%d..%d] >? %d", a, a+fleetWindow-1, t)
	c.want = c.want[:0]
	for i := a; i < a+fleetWindow; i++ {
		if v := f.fill(i); v > t {
			c.want = append(c.want, want{a: int32(i), v: v})
		}
	}
	k, first, lat, err := f.submit(c, q)
	c.observe(&c.lat, lat)
	if k > 0 {
		c.observe(&c.first, first)
	}
	return f.check(c, q, k, err)
}

// write stores the value the fill already put at a random index: the
// oracle stays exact while the write still takes every replica's exclusive
// lock, invalidates caches and fans out.
func (f *fleetRW) write(c *client) error {
	i := c.rng.Intn(fleetInts)
	v := f.fill(i)
	q := fmt.Sprintf("x[%d] = %d", i, v)
	c.want = append(c.want[:0], want{a: int32(i), v: v})
	k, _, lat, err := f.submit(c, q)
	c.observe(&c.writeLat, lat)
	return f.check(c, q, k, err)
}

// submit routes q through the fleet, checking each value against c.want as
// it streams in. It returns the values seen, the time to the first one and
// the latency.
func (f *fleetRW) submit(c *client, q string) (k int, first, lat time.Duration, err error) {
	var mismatch error
	submit := time.Now()
	emit := func(v serve.StreamValue) error {
		if k == 0 {
			first = time.Since(submit)
		}
		if mismatch == nil {
			if k >= len(c.want) {
				mismatch = fmt.Errorf("%s: extra value %s", q, v.Line())
			} else if w := c.want[k]; !c.textIs(v.Text, w.v) || !c.elemSymIs(v.Sym, w.a) {
				mismatch = fmt.Errorf("%s: value %d is %s, want x[%d] = %d", q, k, v.Line(), w.a, w.v)
			}
		}
		k++
		return nil
	}
	if f.tr == nil {
		err = f.router.SubmitStream(context.Background(), fleetGroup, q, serve.SubmitOptions{}, emit)
	} else {
		sp := f.tr.begin(&f.tr.client, layerFleet)
		err = f.router.SubmitStream(context.Background(), fleetGroup, q, serve.SubmitOptions{}, emit)
		f.tr.end(&f.tr.client, sp)
	}
	lat = time.Since(submit)
	c.values += int64(k)
	return k, first, lat, errors.Join(err, mismatch)
}

func (f *fleetRW) check(c *client, q string, k int, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", q, err)
	}
	if k != len(c.want) {
		return fmt.Errorf("%s: %d values, want %d", q, k, len(c.want))
	}
	return nil
}

// elemSymIs reports whether s is "x[i]".
func (c *client) elemSymIs(s string, i int32) bool {
	c.buf = append(c.buf[:0], "x["...)
	c.buf = strconv.AppendInt(c.buf, int64(i), 10)
	c.buf = append(c.buf, ']')
	return string(c.buf) == s
}

func (f *fleetRW) counters() counters {
	var c counters
	for _, s := range f.servers {
		c.addServe(s.Stats())
	}
	c.Fleet = f.router.Stats()
	return c
}

func (f *fleetRW) close() error {
	f.router.Close()
	return shutdown(f.servers...)
}

func fleetLadder(seed int64) (dbgif.Debugger, string, error) {
	d, err := scenarios.BuildIntArray(fleetInts, fleetFill(seed))
	a := rand.New(rand.NewSource(seed)).Intn(fleetInts - fleetWindow + 1)
	return d, fmt.Sprintf("x[%d..%d] >? 0", a, a+fleetWindow-1), err
}
