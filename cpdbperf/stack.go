package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	cpdb "repro"
	"repro/internal/core"
	"repro/internal/path"
	"repro/internal/provplan"
	"repro/internal/provstore"
	"repro/internal/update"
	"repro/internal/wrapper"
)

// A spec is one workload: the store it runs against and its operation mix.
type spec struct {
	name string
	// store is "mem", "rel" (durable, group commit) or "remote" (a cpdbd
	// child serving mem:// to a caching cpdb:// client).
	store string
	// batch is Config.BatchSize.
	batch int
	// preload is the number of edits applied in set-up.
	preload int
	// questionPerMille is the share of timed items that are questions, and
	// modPerMille the share of questions that are mods. A mod walks its
	// entry's whole subtree history and costs about a hundred location
	// questions, so the read-heavy workloads keep it rare enough for the
	// location questions and edits to collect samples too.
	questionPerMille int
	modPerMille      int
	// modEntries, when positive, limits the mods to that many entries,
	// asked in turn. A query run asks only about 40 mods; over all 200
	// entries each run's median came from a different subset, and moved
	// by a fifth between runs.
	modEntries int
	// drainEvery puts a full Records drain at every drainEvery-th timed
	// item; drainFirst makes item 0 a drain too, before any other read.
	drainEvery int
	drainFirst bool
	// probeAt, when positive, makes timed step probeAt a read probe of
	// probeSize questions with a drain before every probeEvery-th. A run
	// always reaches the probe, and the store there is the same size
	// however fast the machine is, so the read latencies of an edit
	// workload compare across runs and commits: questions spread through
	// the run would ask larger stores on faster runs.
	probeAt, probeSize, probeEvery int
	// setups is how many times set-up is repeated for the setup_s median.
	setups int
	// traceItems is how many timed items each pass of a traced run runs,
	// per second of --seconds; a fixed count keeps the counts of two traced
	// runs comparable.
	traceItems int
}

// specs are the workloads; README.md gives the reason for each.
var specs = []*spec{
	{
		name: "curate", store: "mem",
		modPerMille: 300, probeAt: 20000, probeSize: 600, probeEvery: 60,
		setups: 25, traceItems: 2100,
	},
	{
		name: "query", store: "mem",
		preload:          64000,
		questionPerMille: 800, modPerMille: 50, modEntries: 16, drainEvery: 100, drainFirst: true,
		setups: 3, traceItems: 60,
	},
	{
		name: "remote", store: "remote",
		preload:          64000,
		questionPerMille: 800, modPerMille: 50, modEntries: 16, drainEvery: 75, drainFirst: true,
		// Each set-up starts a daemon and preloads it over the wire (about
		// 10s), so this workload sets up twice, not three times.
		setups: 2, traceItems: 60,
	},
	{
		name: "durable", store: "rel", batch: 16,
		// The probe comes when the store (about 3 MB) has outgrown the
		// 256 × 4 KiB buffer pool.
		modPerMille: 250, probeAt: 8000, probeSize: 240, probeEvery: 20,
		setups: 25, traceItems: 1000,
	},
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// quick shrinks a spec for the self-check mode.
func (sp *spec) quick() *spec {
	q := *sp
	q.preload = min(q.preload, 3000)
	if q.drainEvery > 0 {
		q.drainEvery = min(q.drainEvery, 200)
	}
	if q.probeAt > 0 {
		q.probeAt, q.probeSize, q.probeEvery = 1500, 60, 20
	}
	q.setups = min(q.setups, 2)
	q.traceItems = min(q.traceItems, 300)
	return &q
}

// A stack is one client's handle on the system under test. Both
// implementations answer through the same code paths: sessionStack through
// the public cpdb API, tracedStack through the same internal calls with a
// decorator at each layer boundary.
type stack interface {
	apply(op update.Op) error
	commit() error
	ask(k kind, p path.Path) (answer string, err error)
	records(ctx context.Context, fn func(provstore.Record)) error
	backend() provstore.Backend
	close() error
}

// env is what a stack is opened in: the generated databases, a directory
// for store files and, for the remote workload, the daemon binary.
type env struct {
	sp     *spec
	in     inputs
	dir    string
	cpdbd  string
	daemon *daemon // the remote workload's daemon, once started
	// wrapStore, when set, wraps the innermost store (fault injection).
	wrapStore func(provstore.Backend) provstore.Backend
	nOpen     int
}

// openStore opens the innermost store of the workload: a fresh mem:// or
// durable rel:// store, or a cpdb:// client of a freshly started daemon.
func (e *env) openStore() (provstore.Backend, error) {
	e.nOpen++
	var b provstore.Backend
	var err error
	switch e.sp.store {
	case "mem":
		b, err = cpdb.OpenBackend("mem://")
	case "rel":
		file := filepath.Join(e.dir, fmt.Sprintf("prov-%d.db", e.nOpen))
		b, err = cpdb.OpenBackend("rel://" + provstore.EscapeDSNPath(file) + "?create=1&durable=1")
	case "remote":
		if e.daemon != nil {
			if err := e.daemon.stop(); err != nil {
				return nil, err
			}
		}
		e.daemon, err = startDaemon(e.cpdbd, e.dir, "-backend", "mem://", "-cache-bytes", "64mb", "-plan-cache", "256")
		if err != nil {
			return nil, err
		}
		b, err = cpdb.OpenBackend("cpdb://" + e.daemon.addr + "?cache=16mb")
	default:
		err = fmt.Errorf("unknown store %q", e.sp.store)
	}
	if err != nil {
		return nil, err
	}
	if e.wrapStore != nil {
		b = e.wrapStore(b)
	}
	return b, nil
}

func (e *env) target() wrapper.Target { return cpdb.NewMemTarget(targetName, e.in.target.Clone()) }
func (e *env) source() wrapper.Source { return cpdb.NewMemSource(sourceName, e.in.source.Clone()) }

// sessionStack drives the public API: cpdb.New, Session.Apply/Commit and
// the Query handle.
type sessionStack struct{ s *cpdb.Session }

func openSession(e *env) (*sessionStack, error) {
	b, err := e.openStore()
	if err != nil {
		return nil, err
	}
	s, err := cpdb.New(cpdb.Config{
		Target:    e.target(),
		Sources:   []cpdb.Source{e.source()},
		Method:    cpdb.HierTrans,
		Backend:   b,
		BatchSize: e.sp.batch,
	})
	if err != nil {
		return nil, err
	}
	return &sessionStack{s}, nil
}

func (s *sessionStack) apply(op update.Op) error { return s.s.Apply(op) }

func (s *sessionStack) commit() error {
	_, err := s.s.Commit()
	return err
}

func (s *sessionStack) ask(k kind, p path.Path) (string, error) {
	q := s.s.Query()
	switch k {
	case kTrace:
		tr, err := q.Trace(p)
		return traceAnswer(tr), err
	case kSrc:
		tid, ok, err := q.Src(p)
		return srcAnswer(tid, ok), err
	case kHist:
		tids, err := q.Hist(p)
		return tidsAnswer(tids), err
	default:
		tids, err := q.Mod(p)
		return tidsAnswer(tids), err
	}
}

func (s *sessionStack) records(ctx context.Context, fn func(provstore.Record)) error {
	for rec, err := range s.s.Query().Records(ctx) {
		if err != nil {
			return err
		}
		fn(rec)
	}
	return nil
}

func (s *sessionStack) backend() provstore.Backend { return s.s.BackendStore() }
func (s *sessionStack) close() error               { return s.s.Close() }

// tracedStack rebuilds what cpdb.New builds — store, optional batching
// buffer, HT tracker, editor — with a decorator at each boundary, and
// answers questions and drains the way the Query handle does.
type tracedStack struct {
	r  *recorder
	ed *core.Editor
	b  provstore.Backend // the backend the tracker writes to
}

// storeLayer names the innermost store's layer in span names.
var storeLayer = map[string]string{"mem": "store", "rel": "rel", "remote": "rpc"}

func openTraced(e *env, r *recorder) (*tracedStack, error) {
	inner, err := e.openStore()
	if err != nil {
		return nil, err
	}
	b, err := traceBackend(inner, r, storeLayer[e.sp.store])
	if err != nil {
		return nil, err
	}
	if e.sp.batch > 1 {
		if b, err = traceBackend(provstore.NewBatching(b, e.sp.batch), r, "batch"); err != nil {
			return nil, err
		}
	}
	tr, err := provstore.New(provstore.HierTrans, provstore.Config{Backend: b})
	if err != nil {
		return nil, err
	}
	ed, err := core.NewEditor(core.Config{
		Target:  traceTarget(e.target(), r),
		Sources: []wrapper.Source{&tracedSource{e.source(), r, "source"}},
		Tracker: &tracedTracker{tr, r},
	})
	if err != nil {
		return nil, err
	}
	return &tracedStack{r: r, ed: ed, b: b}, nil
}

func (t *tracedStack) apply(op update.Op) error {
	t.r.op++
	id, _ := t.r.begin(context.Background(), "editor.Apply")
	err := t.ed.Apply(op)
	t.r.end(id, err)
	return err
}

func (t *tracedStack) commit() error {
	t.r.op++
	id, _ := t.r.begin(context.Background(), "editor.Commit")
	_, err := t.ed.Commit()
	t.r.end(id, err)
	return err
}

var planOps = map[kind]string{kTrace: provplan.OpTrace, kSrc: provplan.OpSrc, kHist: provplan.OpHist, kMod: provplan.OpMod}

// ask runs the question as Query.Trace/Src/Hist/Mod do and records the
// rows it returned and the records the plan pulled (Result.Scanned).
func (t *tracedStack) ask(k kind, p path.Path) (string, error) {
	t.r.op++
	id, ctx := t.r.begin(context.Background(), "plan."+k.String())
	res, err := provplan.Collect(ctx, t.b, &provplan.Query{Op: planOps[k], Path: p.String()})
	t.r.end(id, err)
	if err != nil {
		return "", err
	}
	rows := int64(len(res.Tids) + len(res.Trace.Events))
	if k == kSrc {
		rows = 1
	}
	t.r.setN(id, rows, res.Scanned)
	switch k {
	case kTrace:
		return traceAnswer(res.Trace), nil
	case kSrc:
		return srcAnswer(res.Value, res.Found), nil
	default:
		return tidsAnswer(res.Tids), nil
	}
}

func (t *tracedStack) records(ctx context.Context, fn func(provstore.Record)) error {
	t.r.op++
	id, ctx := t.r.begin(ctx, "client.Records")
	n, err := drainBackend(ctx, t.b, fn)
	t.r.end(id, err)
	t.r.setN(id, n, 0)
	return err
}

// drainBackend is Query.Records over a backend: pin the horizon, then
// stream the (Tid, Loc)-ordered relation up to it.
func drainBackend(ctx context.Context, b provstore.Backend, fn func(provstore.Record)) (int64, error) {
	tnow, err := b.MaxTid(ctx)
	if err != nil {
		return 0, err
	}
	var n int64
	for rec, err := range b.ScanAll(ctx) {
		if err != nil {
			return n, err
		}
		if rec.Tid > tnow {
			break
		}
		fn(rec)
		n++
	}
	return n, nil
}

func (t *tracedStack) backend() provstore.Backend { return t.b }
func (t *tracedStack) close() error               { return provstore.Close(t.b) }

// --- canonical answers --------------------------------------------------------

func traceAnswer(tr cpdb.TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "o%d x%s", tr.Origin, tr.External)
	for _, ev := range tr.Events {
		fmt.Fprintf(&b, " %d:%d:%s<%s", ev.Tid, ev.Op, ev.Loc, ev.Src)
	}
	return b.String()
}

func srcAnswer(tid int64, ok bool) string { return fmt.Sprintf("%d %t", tid, ok) }

func tidsAnswer(tids []int64) string { return fmt.Sprint(tids) }
