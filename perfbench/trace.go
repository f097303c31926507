package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"duel"
	"duel/internal/core"
	"duel/internal/ctype"
	"duel/internal/dbgif"
	"duel/internal/duel/ast"
	"duel/internal/duel/value"
)

// layer names the module a span times.
type layer uint8

const (
	layerFleet     layer = iota // fleet.Router calls
	layerServe                  // serve.Server calls
	layerSession                // duel.Session calls, and the emit path back up through display
	layerCore                   // Backend.Eval: the evaluator, value engine and memio
	layerSubstrate              // calls on the registered dbgif.Debugger
	numLayers
)

var layerNames = [numLayers]string{"fleet", "serve", "session", "core", "substrate"}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
type span struct {
	parent     int32
	layer      layer
	start, end int64
}

// lane is one sequential stream of nested spans: the client's calls, or the
// evaluations on one substrate. Its stack holds the open spans.
type lane struct {
	stack []int32
}

// tracer records spans in memory. The traced run has one client, so one
// request is in flight at a time and every span between startRequest and
// endRequest belongs to it. Spans of concurrent lanes (a write fanned out
// to every replica) parent to the client span that was open when they
// began.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	client lane
	lanes  []*lane
	on     bool
	spans  []span // the current request's spans

	self    [numLayers]int64 // summed self time per layer
	total   [numLayers]int64 // summed span time per layer
	nspans  int64
	kept    [][]span // the first requests' spans, for the trace file
	keptLen int

	sessions []*duel.Session

	reads, readBytes, faults, lookups atomic.Int64
}

// maxKeptSpans bounds the spans written to the trace file.
const maxKeptSpans = 200_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// newLane adds a lane for one substrate.
func (t *tracer) newLane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{}
	t.lanes = append(t.lanes, l)
	return l
}

// begin opens a span on l. Its parent is l's innermost open span, or the
// client's when l has none. It returns -1 outside a request.
func (t *tracer) begin(l *lane, ly layer) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{parent: t.parentOf(l), layer: ly, start: t.now()})
	l.stack = append(l.stack, i)
	return i
}

func (t *tracer) parentOf(l *lane) int32 {
	if n := len(l.stack); n > 0 {
		return l.stack[n-1]
	}
	if n := len(t.client.stack); n > 0 {
		return t.client.stack[n-1]
	}
	return -1
}

// end closes span i, which must be l's innermost open span.
func (t *tracer) end(l *lane, i int32) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(i) < len(t.spans) {
		t.spans[i].end = t.now()
	}
	if n := len(l.stack); n > 0 {
		l.stack = l.stack[:n-1]
	}
}

// leaf records a span with no children that began at start.
func (t *tracer) leaf(l *lane, ly layer, start int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.spans = append(t.spans, span{parent: t.parentOf(l), layer: ly, start: start, end: t.now()})
	}
}

func (t *tracer) startRequest() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = true
	t.spans = t.spans[:0]
	t.client.stack = t.client.stack[:0]
	for _, l := range t.lanes {
		l.stack = l.stack[:0]
	}
}

// endRequest adds each span's self time — its duration minus the union of
// its children's intervals — to its layer.
func (t *tracer) endRequest() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	spans := t.spans
	covered := make([]int64, len(spans))
	reach := make([]int64, len(spans)) // end of the children's union so far
	// One pass in start order merges each parent's children intervals.
	// Spans are appended when they begin, except leaves, which are appended
	// when they end; they are out of order only when lanes overlapped.
	order := make([]int, len(spans))
	inOrder := true
	for i := range order {
		order[i] = i
		inOrder = inOrder && (i == 0 || spans[i].start >= spans[i-1].start)
	}
	if !inOrder {
		sort.SliceStable(order, func(i, j int) bool { return spans[order[i]].start < spans[order[j]].start })
	}
	for _, i := range order {
		s := spans[i]
		if s.parent < 0 || s.end == 0 {
			continue
		}
		p := s.parent
		switch {
		case s.start >= reach[p]:
			covered[p] += s.end - s.start
			reach[p] = s.end
		case s.end > reach[p]:
			covered[p] += s.end - reach[p]
			reach[p] = s.end
		}
	}
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		t.total[s.layer] += d
		t.self[s.layer] += d - covered[i]
	}
	t.nspans += int64(len(spans))
	if t.keptLen+len(spans) <= maxKeptSpans {
		t.kept = append(t.kept, append([]span(nil), spans...))
		t.keptLen += len(spans)
	}
}

// adopt wraps a session's backend so each evaluation, and each value's trip
// back up through display and the caller, is a span on l. The session's
// counters are summed at the end of the run.
func (t *tracer) adopt(ses *duel.Session, l *lane) {
	ses.Backend = &tracedBackend{Backend: ses.Backend, t: t, l: l}
	t.mu.Lock()
	t.sessions = append(t.sessions, ses)
	t.mu.Unlock()
}

// sessionCounters sums the evaluation counters of every adopted session.
func (t *tracer) sessionCounters() core.Counters {
	t.mu.Lock()
	sessions := append([]*duel.Session(nil), t.sessions...)
	t.mu.Unlock()
	var sum core.Counters
	for _, s := range sessions {
		c := s.Counters()
		sum.Lookups += c.Lookups
		sum.Applies += c.Applies
		sum.SymOps += c.SymOps
		sum.Values += c.Values
		sum.TargetReads += c.TargetReads
		sum.HostReads += c.HostReads
		sum.MemRetries += c.MemRetries
	}
	return sum
}

// writeFile writes the kept spans as JSON lines to path.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Req    int    `json:"req"`
		ID     int    `json:"id"`
		Parent int32  `json:"parent"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
	}
	for r, spans := range t.kept {
		for i, s := range spans {
			if err := enc.Encode(rec{r, i, s.parent, layerNames[s.layer], s.start, s.end - s.start}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps a session's evaluator with core and emit spans.
type tracedBackend struct {
	core.Backend
	t *tracer
	l *lane
}

func (b *tracedBackend) Eval(e *core.Env, n *ast.Node, emit core.EmitFn) error {
	i := b.t.begin(b.l, layerCore)
	defer b.t.end(b.l, i)
	return b.Backend.Eval(e, n, func(v value.Value) error {
		j := b.t.begin(b.l, layerSession)
		defer b.t.end(b.l, j)
		return emit(v)
	})
}

// substrate wraps d so every call on it is a span on l.
func (t *tracer) substrate(d dbgif.Debugger, l *lane) dbgif.Debugger {
	return &tracedDebugger{d: d, t: t, l: l}
}

// tracedDebugger is debugger middleware that records a substrate span per
// call and counts reads, bytes, faults and symbol lookups. It follows the
// dbgif.Wrapper convention: capabilities and interrupts pass through to the
// wrapped debugger, and errors come back unchanged, so every layer above
// classifies faults exactly as it would without the wrapper.
type tracedDebugger struct {
	d dbgif.Debugger
	t *tracer
	l *lane
}

// Unwrap implements dbgif.Wrapper.
func (s *tracedDebugger) Unwrap() dbgif.Debugger { return s.d }

// CanWrite implements dbgif.Capabilities by delegation.
func (s *tracedDebugger) CanWrite() bool { return dbgif.CanWrite(s.d) }

// CanAlloc implements dbgif.Capabilities by delegation.
func (s *tracedDebugger) CanAlloc() bool { return dbgif.CanAlloc(s.d) }

// CanCall implements dbgif.Capabilities by delegation.
func (s *tracedDebugger) CanCall() bool { return dbgif.CanCall(s.d) }

// Interrupt implements dbgif.Interrupter by forwarding.
func (s *tracedDebugger) Interrupt() { dbgif.Interrupt(s.d) }

// Resume implements dbgif.Interrupter by forwarding.
func (s *tracedDebugger) Resume() { dbgif.Resume(s.d) }

func (s *tracedDebugger) done(start int64, err error) {
	if err != nil {
		s.t.faults.Add(1)
	}
	s.t.leaf(s.l, layerSubstrate, start)
}

func (s *tracedDebugger) lookup(start int64) {
	s.t.lookups.Add(1)
	s.t.leaf(s.l, layerSubstrate, start)
}

func (s *tracedDebugger) Arch() *ctype.Arch { return s.d.Arch() }

func (s *tracedDebugger) GetTargetBytes(addr uint64, n int) ([]byte, error) {
	start := s.t.now()
	b, err := s.d.GetTargetBytes(addr, n)
	s.t.reads.Add(1)
	s.t.readBytes.Add(int64(len(b)))
	s.done(start, err)
	return b, err
}

func (s *tracedDebugger) PutTargetBytes(addr uint64, b []byte) error {
	start := s.t.now()
	err := s.d.PutTargetBytes(addr, b)
	s.done(start, err)
	return err
}

func (s *tracedDebugger) ValidTargetAddr(addr uint64, n int) bool {
	start := s.t.now()
	ok := s.d.ValidTargetAddr(addr, n)
	s.done(start, nil)
	return ok
}

func (s *tracedDebugger) AllocTargetSpace(n, align int) (uint64, error) {
	start := s.t.now()
	a, err := s.d.AllocTargetSpace(n, align)
	s.done(start, err)
	return a, err
}

func (s *tracedDebugger) CallTargetFunc(addr uint64, args []dbgif.Value) (dbgif.Value, error) {
	start := s.t.now()
	v, err := s.d.CallTargetFunc(addr, args)
	s.done(start, err)
	return v, err
}

func (s *tracedDebugger) GetTargetVariable(name string) (dbgif.VarInfo, bool) {
	start := s.t.now()
	v, ok := s.d.GetTargetVariable(name)
	s.lookup(start)
	return v, ok
}

func (s *tracedDebugger) FrameVariable(level int, name string) (dbgif.VarInfo, bool) {
	start := s.t.now()
	v, ok := s.d.FrameVariable(level, name)
	s.lookup(start)
	return v, ok
}

func (s *tracedDebugger) FrameLocals(level int) ([]dbgif.VarInfo, bool) {
	start := s.t.now()
	v, ok := s.d.FrameLocals(level)
	s.lookup(start)
	return v, ok
}

func (s *tracedDebugger) NumFrames() int {
	start := s.t.now()
	n := s.d.NumFrames()
	s.done(start, nil)
	return n
}

func (s *tracedDebugger) LookupTypedef(name string) (ctype.Type, bool) {
	start := s.t.now()
	ty, ok := s.d.LookupTypedef(name)
	s.lookup(start)
	return ty, ok
}

func (s *tracedDebugger) LookupStruct(tag string, union bool) (*ctype.Struct, bool) {
	start := s.t.now()
	st, ok := s.d.LookupStruct(tag, union)
	s.lookup(start)
	return st, ok
}

func (s *tracedDebugger) LookupEnum(tag string) (*ctype.Enum, bool) {
	start := s.t.now()
	en, ok := s.d.LookupEnum(tag)
	s.lookup(start)
	return en, ok
}

func (s *tracedDebugger) LookupEnumConst(name string) (ctype.Type, int64, bool) {
	start := s.t.now()
	ty, v, ok := s.d.LookupEnumConst(name)
	s.lookup(start)
	return ty, v, ok
}
