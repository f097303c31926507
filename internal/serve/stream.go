// Streaming value emission: SubmitStream delivers each value a query
// produces as it is produced, instead of collecting the transcript.
//
// DUEL's defining property is that one query yields a *stream* of
// (symbolic expression, value) pairs — "x[..100] >? 0" can produce a
// hundred hits, and the caller watching a live target wants the first hit
// when it happens, not when the scan ends. Eval's []duel.Result shape
// buries that; SubmitStream surfaces it. Every value is delivered through
// the emit callback with its symbolic expression, formatted text, a
// query-local sequence number and a flat emission timestamp. The callback
// runs on the producing side and its return value propagates into the
// evaluator, so a slow or aborting consumer backpressures (or cancels) the
// evaluation itself — there is no unbounded buffering between producer and
// consumer.
//
// Streaming composes with every serving policy unchanged, because it IS
// SubmitContext with an adapted callback: deadlines, retries and health all
// apply. A serve retry runs only when the failed attempt delivered nothing,
// so a stream never duplicates a value.
package serve

import (
	"context"
	"fmt"
	"strings"
	"time"

	"duel"
)

// StreamValue is one streamed value of a query.
type StreamValue struct {
	// Seq numbers the value within its query, from 0, in production order.
	Seq int
	// Sym is the symbolic expression that reached the value — DUEL's
	// "x[i].a" provenance — empty when symbolic tracking is off.
	Sym string
	// Text is the value formatted exactly as Eval's Result.Text.
	Text string
	// At stamps when the value was delivered to the stream.
	At time.Time
}

// Line renders the value like duel.Result.Line: "sym = text", or just the
// text when there is no distinct symbolic form.
func (v StreamValue) Line() string {
	if v.Sym == "" || v.Sym == v.Text {
		return v.Text
	}
	return v.Sym + " = " + v.Text
}

// SubmitStream runs one query like SubmitContext but delivers each produced
// value to emit as it is produced. emit's error aborts the evaluation just
// as a Result callback's would; blocking in emit backpressures the
// evaluator. The values seen by a SubmitStream caller are byte-identical
// (Sym and Text) to the Results the same query would have produced through
// Eval.
func (s *Server) SubmitStream(ctx context.Context, target, src string, opt SubmitOptions, emit func(StreamValue) error) error {
	s.stats.streamQueries.Add(1)
	return s.SubmitContext(ctx, target, src, opt, s.streamTo(emit))
}

// SubmitPrepared is SubmitStream for a query Prepare parsed: it is admitted
// and counted exactly like SubmitStream(ctx, target, q.Src, ...), but every
// attempt evaluates the prepared AST instead of parsing again. A query
// prepared for a different target — on another server, or before target
// was registered again — is parsed afresh from q.Src, as SubmitStream
// would, since its AST holds that other target's C types.
func (s *Server) SubmitPrepared(ctx context.Context, target string, q *Query, opt SubmitOptions, emit func(StreamValue) error) error {
	s.stats.streamQueries.Add(1)
	t, err := s.lookup(target)
	if err != nil {
		return err
	}
	run := *q
	if run.t != t {
		run = Query{Src: q.Src}
	}
	return s.submit(ctx, t, run, opt, s.streamTo(emit))
}

// streamTo adapts a StreamValue callback to the Result callback the
// evaluation drives, numbering and counting the values.
func (s *Server) streamTo(emit func(StreamValue) error) func(duel.Result) error {
	seq := 0
	return func(r duel.Result) error {
		v := StreamValue{Seq: seq, Sym: r.Sym, Text: r.Text, At: time.Now()}
		seq++
		s.stats.streamValues.Add(1)
		return emit(v)
	}
}

// TimingCSV renders the snapshot's per-query timing aggregates as a CSV
// header and one row — the shape scrapers and spreadsheets want:
// completed queries, total/mean queue wait and total/mean evaluation time
// in nanoseconds.
func (st Stats) TimingCSV() string {
	var b strings.Builder
	b.WriteString("completed,queue_ns_total,queue_ns_mean,eval_ns_total,eval_ns_mean\n")
	meanQ, meanE := int64(0), int64(0)
	if st.Completed > 0 {
		meanQ = st.QueueNanos / st.Completed
		meanE = st.EvalNanos / st.Completed
	}
	fmt.Fprintf(&b, "%d,%d,%d,%d,%d\n", st.Completed, st.QueueNanos, meanQ, st.EvalNanos, meanE)
	return b.String()
}
