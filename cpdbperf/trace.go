package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"os"
	"sync"
	"time"

	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/wrapper"
)

// A span is one call across a layer boundary, recorded from outside the
// layer by a decorator. For a call, the layer is busy from start to end.
// A cursor's span runs from the scan call to its last record, but the
// layer is busy only while its iterator runs — segs lists those
// intervals, and busy is their sum.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a top-level operation
	Op     int32  `json:"op"`     // the client operation the span belongs to
	Name   string `json:"name"`   // layer.method
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	N      int64  `json:"n"` // records moved (appends, scans) or rows returned (plans)
	Aux    int64  `json:"aux"`
	Err    bool   `json:"err,omitempty"`
	segs   []int64
}

// spanKey carries the open span's id in a context.
type spanKey struct{}

// A recorder keeps spans in memory for one traced pass. A span's parent
// is the span id its context carries — backend calls and cursors receive
// the caller's context, even when the program runs them on another
// goroutine (provstore.MergeScans primes its inputs concurrently) — or,
// for calls without one (the tracker, the wrapped databases, a batching
// flush), the innermost call open on the client's goroutine.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	op    int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open starts span name and returns its id and a context carrying it.
// push also makes it the innermost open call until end.
func (r *recorder) open(ctx context.Context, name string, push bool) (int32, context.Context) {
	t := r.now()
	r.mu.Lock()
	parent, ok := ctx.Value(spanKey{}).(int32)
	if !ok {
		parent = -1
		if n := len(r.stack); n > 0 {
			parent = r.stack[n-1]
		}
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: t})
	if push {
		r.stack = append(r.stack, id)
	}
	r.mu.Unlock()
	return id, context.WithValue(ctx, spanKey{}, id)
}

// begin opens a call span.
func (r *recorder) begin(ctx context.Context, name string) (int32, context.Context) {
	return r.open(ctx, name, true)
}

// end closes call span id, popping the innermost open call.
func (r *recorder) end(id int32, err error) {
	t := r.now()
	r.mu.Lock()
	s := &r.spans[id]
	s.End = t
	s.Busy += t - s.Start
	s.segs = append(s.segs, s.Start, t)
	s.Err = s.Err || err != nil
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
}

// setN records a span's record or row count.
func (r *recorder) setN(id int32, n, aux int64) {
	r.mu.Lock()
	r.spans[id].N, r.spans[id].Aux = n, aux
	r.mu.Unlock()
}

// busy adds one interval the cursor id spent inside its layer.
func (r *recorder) busy(id int32, from, to int64, rec, failed bool) {
	r.mu.Lock()
	s := &r.spans[id]
	s.Busy += to - from
	s.segs = append(s.segs, from, to)
	s.End = to
	if rec {
		s.N++
	}
	s.Err = s.Err || failed
	r.mu.Unlock()
}

// cursor records a scan. Opening it is busy time; iterating it adds one
// busy interval per record pulled, excluding the time the consumer holds
// each record. Cursors the layer opens beneath it get its context.
func cursor[T any](ctx context.Context, r *recorder, name string, open func(context.Context) iter.Seq2[T, error]) iter.Seq2[T, error] {
	t0 := r.now()
	id, ctx := r.open(ctx, name, false)
	seq := open(ctx)
	r.busy(id, t0, r.now(), false, false)
	return func(yield func(T, error) bool) {
		t := r.now()
		for v, err := range seq {
			now := r.now()
			r.busy(id, t, now, err == nil, err != nil)
			if !yield(v, err) {
				return
			}
			t = r.now()
		}
		r.busy(id, t, r.now(), false, false)
	}
}

// writeSpans writes spans to file as JSON lines.
func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decorators --------------------------------------------------------------

// tracedBackend records a span per Backend call under layer name.
type tracedBackend struct {
	inner provstore.Backend
	r     *recorder
	layer string
}

func (b *tracedBackend) name(m string) string { return b.layer + "." + m }

func (b *tracedBackend) Append(ctx context.Context, recs []provstore.Record) error {
	id, ctx := b.r.begin(ctx, b.name("Append"))
	err := b.inner.Append(ctx, recs)
	b.r.end(id, err)
	b.r.setN(id, int64(len(recs)), 1)
	return err
}

func (b *tracedBackend) Lookup(ctx context.Context, tid int64, loc path.Path) (provstore.Record, bool, error) {
	id, ctx := b.r.begin(ctx, b.name("Lookup"))
	rec, ok, err := b.inner.Lookup(ctx, tid, loc)
	b.r.end(id, err)
	return rec, ok, err
}

func (b *tracedBackend) NearestAncestor(ctx context.Context, tid int64, loc path.Path) (provstore.Record, bool, error) {
	id, ctx := b.r.begin(ctx, b.name("NearestAncestor"))
	rec, ok, err := b.inner.NearestAncestor(ctx, tid, loc)
	b.r.end(id, err)
	return rec, ok, err
}

type recSeq = iter.Seq2[provstore.Record, error]

func (b *tracedBackend) ScanTid(ctx context.Context, tid int64) recSeq {
	return cursor(ctx, b.r, b.name("ScanTid"), func(ctx context.Context) recSeq { return b.inner.ScanTid(ctx, tid) })
}

func (b *tracedBackend) ScanLoc(ctx context.Context, loc path.Path) recSeq {
	return cursor(ctx, b.r, b.name("ScanLoc"), func(ctx context.Context) recSeq { return b.inner.ScanLoc(ctx, loc) })
}

func (b *tracedBackend) ScanLocPrefix(ctx context.Context, prefix path.Path) recSeq {
	return cursor(ctx, b.r, b.name("ScanLocPrefix"), func(ctx context.Context) recSeq { return b.inner.ScanLocPrefix(ctx, prefix) })
}

func (b *tracedBackend) ScanLocWithAncestors(ctx context.Context, loc path.Path) recSeq {
	return cursor(ctx, b.r, b.name("ScanLocWithAncestors"), func(ctx context.Context) recSeq { return b.inner.ScanLocWithAncestors(ctx, loc) })
}

func (b *tracedBackend) ScanAll(ctx context.Context) recSeq {
	return cursor(ctx, b.r, b.name("ScanAll"), func(ctx context.Context) recSeq { return b.inner.ScanAll(ctx) })
}

func (b *tracedBackend) ScanAllAfter(ctx context.Context, tid int64, loc path.Path) recSeq {
	return cursor(ctx, b.r, b.name("ScanAllAfter"), func(ctx context.Context) recSeq { return b.inner.ScanAllAfter(ctx, tid, loc) })
}

func (b *tracedBackend) Tids(ctx context.Context) ([]int64, error) {
	id, ctx := b.r.begin(ctx, b.name("Tids"))
	v, err := b.inner.Tids(ctx)
	b.r.end(id, err)
	return v, err
}

func (b *tracedBackend) MaxTid(ctx context.Context) (int64, error) {
	id, ctx := b.r.begin(ctx, b.name("MaxTid"))
	v, err := b.inner.MaxTid(ctx)
	b.r.end(id, err)
	return v, err
}

func (b *tracedBackend) Count(ctx context.Context) (int, error) {
	id, ctx := b.r.begin(ctx, b.name("Count"))
	v, err := b.inner.Count(ctx)
	b.r.end(id, err)
	return v, err
}

func (b *tracedBackend) Bytes(ctx context.Context) (int64, error) {
	id, ctx := b.r.begin(ctx, b.name("Bytes"))
	v, err := b.inner.Bytes(ctx)
	b.r.end(id, err)
	return v, err
}

// The optional interfaces the program type-asserts on a Backend. A
// decorator must implement exactly the ones its inner store implements: a
// decorator hiding Executor would turn a one-round-trip remote plan into a
// client-driven one, and one hiding GroupCommitter would turn a batched
// flush into one fsync per batch — a different program.
type (
	execFwd    struct{ b *tracedBackend }
	flushFwd   struct{ b *tracedBackend }
	closeFwd   struct{ b *tracedBackend }
	groupFwd   struct{ b *tracedBackend }
	gaugeFwd   struct{ b *tracedBackend }
	capability uint8
)

const (
	capExec capability = 1 << iota
	capFlush
	capContextFlush
	capClose
	capGroup
	capGauge
)

func capabilities(b provstore.Backend) capability {
	var c capability
	if _, ok := b.(provplan.Executor); ok {
		c |= capExec
	}
	if _, ok := b.(provstore.Flusher); ok {
		c |= capFlush
	}
	if _, ok := b.(provstore.ContextFlusher); ok {
		c |= capContextFlush
	}
	if _, ok := b.(io.Closer); ok {
		c |= capClose
	}
	if _, ok := b.(provstore.GroupCommitter); ok {
		c |= capGroup
	}
	if _, ok := b.(provstore.Gauger); ok {
		c |= capGauge
	}
	return c
}

func (f execFwd) ExecPlan(ctx context.Context, q *provplan.Query) iter.Seq2[provplan.Row, error] {
	return cursor(ctx, f.b.r, f.b.name("ExecPlan"), func(ctx context.Context) iter.Seq2[provplan.Row, error] {
		return f.b.inner.(provplan.Executor).ExecPlan(ctx, q)
	})
}

func (f flushFwd) Flush() error {
	id, _ := f.b.r.begin(context.Background(), f.b.name("Flush"))
	err := f.b.inner.(provstore.Flusher).Flush()
	f.b.r.end(id, err)
	return err
}

func (f flushFwd) FlushContext(ctx context.Context) error {
	id, ctx := f.b.r.begin(ctx, f.b.name("Flush"))
	err := f.b.inner.(provstore.ContextFlusher).FlushContext(ctx)
	f.b.r.end(id, err)
	return err
}

func (f closeFwd) Close() error {
	id, _ := f.b.r.begin(context.Background(), f.b.name("Close"))
	err := f.b.inner.(io.Closer).Close()
	f.b.r.end(id, err)
	return err
}

func (f groupFwd) AppendBatch(ctx context.Context, batches ...[]provstore.Record) error {
	id, ctx := f.b.r.begin(ctx, f.b.name("AppendBatch"))
	err := f.b.inner.(provstore.GroupCommitter).AppendBatch(ctx, batches...)
	f.b.r.end(id, err)
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	f.b.r.setN(id, int64(n), int64(len(batches)))
	return err
}

func (f gaugeFwd) Gauges() map[string]int64 { return f.b.inner.(provstore.Gauger).Gauges() }

// The decorator types, one per set of optional interfaces that occurs in
// the stacks this benchmark builds.
type (
	// tracedRel decorates a relational store (rel://).
	tracedRel struct {
		*tracedBackend
		closeFwd
		groupFwd
	}
	// tracedBatching decorates the group-commit buffer (Config.BatchSize).
	tracedBatching struct {
		*tracedBackend
		flushFwd
		closeFwd
	}
	// tracedClient decorates a cpdb:// client.
	tracedClient struct {
		*tracedBackend
		execFwd
		flushFwd
		closeFwd
		gaugeFwd
	}
)

// traceBackend decorates inner under layer name. It fails for a store
// whose set of optional interfaces no decorator type reproduces, rather
// than silently hiding one.
func traceBackend(inner provstore.Backend, r *recorder, layer string) (provstore.Backend, error) {
	b := &tracedBackend{inner: inner, r: r, layer: layer}
	switch capabilities(inner) {
	case 0:
		return b, nil
	case capClose | capGroup:
		return tracedRel{b, closeFwd{b}, groupFwd{b}}, nil
	case capFlush | capContextFlush | capClose:
		return tracedBatching{b, flushFwd{b}, closeFwd{b}}, nil
	case capExec | capFlush | capContextFlush | capClose | capGauge:
		return tracedClient{b, execFwd{b}, flushFwd{b}, closeFwd{b}, gaugeFwd{b}}, nil
	default:
		return nil, fmt.Errorf("cpdbperf: no transparent decorator for %T (capabilities %06b)", inner, capabilities(inner))
	}
}

// call records fn as a span on the client's goroutine.
func (r *recorder) call(name string, fn func() error) error {
	id, _ := r.begin(context.Background(), name)
	err := fn()
	r.end(id, err)
	return err
}

// tracedTracker records the provenance tracker's calls.
type tracedTracker struct {
	inner provstore.Tracker
	r     *recorder
}

func (t *tracedTracker) Method() provstore.Method   { return t.inner.Method() }
func (t *tracedTracker) Pending() int               { return t.inner.Pending() }
func (t *tracedTracker) Backend() provstore.Backend { return t.inner.Backend() }

func (t *tracedTracker) Begin() error { return t.r.call("tracker.Begin", t.inner.Begin) }

func (t *tracedTracker) OnInsert(eff update.Effect) error {
	return t.r.call("tracker.OnInsert", func() error { return t.inner.OnInsert(eff) })
}

func (t *tracedTracker) OnDelete(eff update.Effect) error {
	return t.r.call("tracker.OnDelete", func() error { return t.inner.OnDelete(eff) })
}

func (t *tracedTracker) OnCopy(eff update.Effect) error {
	return t.r.call("tracker.OnCopy", func() error { return t.inner.OnCopy(eff) })
}

func (t *tracedTracker) Commit() (tid int64, err error) {
	err = t.r.call("tracker.Commit", func() error {
		tid, err = t.inner.Commit()
		return err
	})
	return tid, err
}

// tracedSource records a wrapped database's browse calls under layer.
type tracedSource struct {
	inner wrapper.Source
	r     *recorder
	layer string
}

func (s *tracedSource) Name() string { return s.inner.Name() }

func (s *tracedSource) Tree() (n *tree.Node, err error) {
	err = s.r.call(s.layer+".Tree", func() error {
		n, err = s.inner.Tree()
		return err
	})
	return n, err
}

func (s *tracedSource) CopyNode(p path.Path) (n *tree.Node, err error) {
	err = s.r.call(s.layer+".CopyNode", func() error {
		n, err = s.inner.CopyNode(p)
		return err
	})
	return n, err
}

func (s *tracedSource) Has(p path.Path) (ok bool) {
	s.r.call(s.layer+".Has", func() error {
		ok = s.inner.Has(p)
		return nil
	})
	return ok
}

// tracedTarget adds the edit calls of the curated database.
type tracedTarget struct {
	tracedSource
	inner wrapper.Target
}

func traceTarget(t wrapper.Target, r *recorder) *tracedTarget {
	return &tracedTarget{tracedSource{t, r, "target"}, t}
}

func (t *tracedTarget) AddNode(parent path.Path, name string, value *tree.Node) error {
	return t.r.call("target.AddNode", func() error { return t.inner.AddNode(parent, name, value) })
}

func (t *tracedTarget) DeleteNode(p path.Path) error {
	return t.r.call("target.DeleteNode", func() error { return t.inner.DeleteNode(p) })
}

func (t *tracedTarget) PasteNode(p path.Path, n *tree.Node) error {
	return t.r.call("target.PasteNode", func() error { return t.inner.PasteNode(p, n) })
}
