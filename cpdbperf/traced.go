package main

import (
	"bufio"

	"context"
	"fmt"
	"os"
	"runtime"

	"strconv"
	"strings"
	"time"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload's stack does not have, or
// does not exercise, reports 0.
var perLayer = []struct{ name, unit string }{
	{"editor.self_us_per_edit", "us"},
	{"target.us_per_edit", "us"},
	{"source.us_per_copy", "us"},
	{"tracker.self_us_per_edit", "us"},
	{"tracker.commit_self_us", "us"},
	{"tracker.records_per_commit", "count"},
	{"tracker.backend_calls_per_edit", "count"},
	{"store.append_us_per_rec", "us"},
	{"store.scan_us_per_question", "us"},
	{"store.scan_calls_per_question", "count"},
	{"store.drain_us_per_rec", "us"},
	{"plan.self_us_per_question", "us"},
	{"plan.recs_pulled_per_row", "count"},
	{"rpc.round_trips_per_question", "count"},
	{"rpc.round_trips_per_commit", "count"},
	{"wire.self_us_per_call", "us"},
	{"wire.bytes_per_rec", "B"},
	{"server.drain_us_per_rec", "us"},
	{"drain.allocs_per_rec_cold", "count"},
	{"drain.allocs_per_rec_warm", "count"},
	{"drain.alloc_bytes_per_rec_cold", "B"},
	{"cache.client_hit_ratio", "ratio"},
	{"cache.page_hit_ratio", "ratio"},
	{"cache.plan_hit_ratio", "ratio"},
	{"batch.recs_per_flush", "count"},
	{"rel.append_us_per_flush", "us"},
	{"rel.scan_us_per_question", "us"},
	{"rel.db_bytes_per_rec", "B"},
	{"rel.wal_bytes_per_rec", "B"},
	{"go.allocs_per_edit", "count"},
	{"go.allocs_per_question", "count"},
	{"go.gc_pause_us_per_s", "us/s"},
	{"trace.overhead_frac", "ratio"},
}

// A daemonView is the daemon's counters at one instant.
type daemonView struct {
	stats   map[string]int64
	metrics map[string]float64
	logLen  int64
}

func viewDaemon(e *env) (daemonView, error) {
	if e.daemon == nil {
		return daemonView{}, nil
	}
	ctx := context.Background()
	st, err := e.daemon.stats(ctx)
	if err != nil {
		return daemonView{}, err
	}
	m, err := e.daemon.metrics(ctx)
	if err != nil {
		return daemonView{}, err
	}
	fi, err := os.Stat(e.daemon.log)
	if err != nil {
		return daemonView{}, err
	}
	return daemonView{st, m, fi.Size()}, nil
}

// endpointClass sorts the daemon's endpoints by the client operation that
// calls them.
var endpointClass = map[string]string{
	"query": "question", "lookup": "question", "ancestor": "question",
	"scan/loc": "question", "scan/prefix": "question", "scan/ancestors": "question", "scan/tid": "question",
	"append": "commit", "flush": "commit",
	"scan/all": "drain", "maxtid": "drain",
	"tids": "other", "count": "other", "bytes": "other",
}

// rpcDelta is the round trips the client made between two views, by
// class; the benchmark's own /v1/stats scrapes are not counted.
func rpcDelta(a, b daemonView) map[string]int64 {
	out := map[string]int64{}
	for k, v := range b.stats {
		ep, ok := strings.CutPrefix(k, "endpoint.")
		if !ok || ep == "stats" || ep == "ping" {
			continue
		}
		if d := v - a.stats[k]; d != 0 {
			out[endpointClass[ep]] += d
			out["total"] += d
			out["ep:"+ep] = d
		}
	}
	return out
}

// A plainPass is one untraced pass of a traced run.
type plainPass struct {
	p       *pass
	final   table
	rpc     map[string]int64 // the daemon's endpoint counts
	wall    time.Duration
	gcPause time.Duration
}

// runPlain runs steps steps of the sequence through the public API on a
// fresh stack, counting allocations per operation.
func runPlain(e *env, seed int64, steps int) (*plainPass, error) {
	g := newSeqGen(e.sp, e.in, seed)
	st, _, err := openPreloaded(e, g.preload())
	if err != nil {
		return nil, err
	}
	v0, err := viewDaemon(e)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	pp := &plainPass{p: loop(st, g, limit{calls: steps}, newPass(newAllocCounter(), nil))}
	pp.wall = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	pp.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	v1, err := viewDaemon(e)
	if err != nil {
		return nil, err
	}
	pp.rpc = rpcDelta(v0, v1)
	if err := finish(st, g); err != nil {
		pp.p.failed++
	}
	if pp.final.recs, pp.final.hash, err = drain(context.Background(), st); err != nil {
		return nil, fmt.Errorf("untraced final drain: %w", err)
	}
	return pp, st.close()
}

// tracedRun is a -trace 1 run: the same fixed-length sequence three times
// on fresh stacks — plain, decorated, plain again — and the per-layer
// metrics of the decorated pass. The plain passes bracket it so the
// tracing overhead is not the first pass's warm-up; the first plain pass
// runs in a fresh process and gives the cold-drain allocation counts.
func tracedRun(e *env, cfg config) (*report, error) {
	defer e.shutdown()
	sp := e.sp
	steps := sp.traceItems * cfg.seconds
	ctx := context.Background()

	plainA, err := runPlain(e, cfg.seed, steps)
	if err != nil {
		return nil, err
	}
	pA, nA, hA := plainA.p, plainA.final.recs, plainA.final.hash

	// Pass B: the same stack rebuilt with decorators.
	r := newRecorder()
	gB := newSeqGen(sp, e.in, cfg.seed)
	stB, err := openTraced(e, r)
	if err != nil {
		return nil, err
	}
	if err := runItems(stB, gB.preload()); err != nil {
		return nil, fmt.Errorf("traced preload: %w", err)
	}
	r.spans, r.t0 = r.spans[:0], time.Now()
	b0, err := viewDaemon(e)
	if err != nil {
		return nil, err
	}
	// It counts allocations too, so its overhead is the spans' alone.
	pB := loop(stB, gB, limit{calls: steps}, newPass(newAllocCounter(), nil))
	b1, err := viewDaemon(e)
	if err != nil {
		return nil, err
	}
	spans := r.spans[:len(r.spans):len(r.spans)]
	if err := finish(stB, gB); err != nil {
		pB.failed++
	}
	nB, hB, err := drain(ctx, stB)
	if err != nil {
		return nil, fmt.Errorf("pass B final drain: %w", err)
	}
	if err := stB.close(); err != nil {
		return nil, err
	}
	var dbBytes, walBytes int64
	if sp.store == "rel" {
		if dbBytes, walBytes, err = relFileBytes(e); err != nil {
			return nil, err
		}
	}
	var logs []logLine
	if e.daemon != nil {
		if logs, err = readRequestLog(e.daemon.log, b0.logLen); err != nil {
			return nil, err
		}
	}
	plainC, err := runPlain(e, cfg.seed, steps)
	if err != nil {
		return nil, err
	}
	e.shutdown()

	// Transparency: decorators must not change what the program does.
	var bad []string
	dB := rpcDelta(b0, b1)
	for _, pl := range []*plainPass{plainA, plainC} {
		if pl.final.recs != nB || pl.final.hash != hB {
			bad = append(bad, fmt.Sprintf("Records differ: untraced %d (%016x), traced %d (%016x)", pl.final.recs, pl.final.hash, nB, hB))
		}
		if pl.p.answers != pB.answers || pl.p.nAsked != pB.nAsked {
			bad = append(bad, fmt.Sprintf("answers differ: untraced %d (%016x), traced %d (%016x)", pl.p.nAsked, pl.p.answers, pB.nAsked, pB.answers))
		}
		if fmt.Sprint(pl.rpc) != fmt.Sprint(dB) {
			bad = append(bad, fmt.Sprintf("daemon endpoint counts differ: untraced %v, traced %v", pl.rpc, dB))
		}
	}
	nBad, first, err := check(sp, e.in, cfg.seed, pA.calls, pA.sampled, table{nA, hA})
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	pC := plainC.p
	rep := &report{
		Correct:   len(bad) == 0 && nBad == 0,
		Attempted: pA.attempted + pB.attempted + pC.attempted,
		Failed:    pA.failed + pB.failed + pC.failed + len(bad) + nBad,
		Metrics:   map[string]metric{},
	}
	if first != "" {
		bad = append(bad, fmt.Sprintf("%d answers or tables differ from the reference; first: %s", nBad, first))
	}
	for _, b := range bad {
		rep.note("MISMATCH: %s", b)
	}
	for _, p := range []*pass{pA, pB, pC} {
		if p.firstErr != "" {
			rep.note("FAILED (%d): first at %s", p.failed, p.firstErr)
		}
	}
	rep.note("workload %s seed %d: %d steps per pass, %d spans, %d records at the end", sp.name, cfg.seed, steps, len(spans), nB)

	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit)
	}
	lay, totals := layers(spans, sp)
	for name, v := range lay {
		rep.set(name, v, rep.Metrics[name].Unit)
	}
	rel := func(n int64, recs int64) float64 {
		if recs == 0 {
			return 0
		}
		return float64(n) / float64(recs)
	}
	if sp.store == "rel" {
		rep.set("rel.db_bytes_per_rec", rel(dbBytes, nB), "B")
		rep.set("rel.wal_bytes_per_rec", rel(walBytes, nB), "B")
	}
	if e.sp.store == "remote" {
		remoteLayers(rep, totals, b0, b1, logs)
	}
	// Drain allocations of pass A: its first drain ran in a fresh process.
	if len(pA.drains) > 0 {
		c := pA.drains[0]
		rep.set("drain.allocs_per_rec_cold", rel(int64(c.allocs), c.recs), "count")
		rep.set("drain.alloc_bytes_per_rec_cold", rel(int64(c.bytes), c.recs), "B")
	}
	if len(pA.drains) > 1 {
		var w []float64
		for _, d := range pA.drains[1:] {
			w = append(w, rel(int64(d.allocs), d.recs))
		}
		rep.set("drain.allocs_per_rec_warm", median(w), "count")
	}
	// Allocations and GC of the second plain pass, which runs warm like a
	// timed run's steady state.
	var qAllocs uint64
	var qN int
	for _, k := range []kind{kTrace, kSrc, kHist, kMod} {
		qAllocs += pC.allocs[k]
		qN += len(pC.lat[k])
	}
	rep.set("go.allocs_per_edit", rel(int64(pC.allocs[kEdit]), int64(len(pC.lat[kEdit]))), "count")
	rep.set("go.allocs_per_question", rel(int64(qAllocs), int64(qN)), "count")
	rep.set("go.gc_pause_us_per_s", float64(plainC.gcPause)/1e3/plainC.wall.Seconds(), "us/s")
	rep.set("trace.overhead_frac", 2*float64(pB.busy)/float64(pA.busy+pC.busy)-1, "ratio")

	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// remoteLayers fills the metrics read from the daemon: round trips from
// /v1/stats deltas, server time and cache ratios from /metrics deltas, and
// wire bytes from the daemon's request log.
func remoteLayers(rep *report, totals spanTotals, a, b daemonView, logs []logLine) {
	d := rpcDelta(a, b)
	q, c := float64(totals.questions), float64(totals.commits)
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	rep.set("rpc.round_trips_per_question", div(float64(d["question"]), q), "count")
	rep.set("rpc.round_trips_per_commit", div(float64(d["commit"]), c), "count")
	rep.set("cache.client_hit_ratio", div(q-float64(d["question"]), q), "ratio")
	var serverNs float64
	for k, v := range b.metrics {
		if strings.HasPrefix(k, "cpdb_http_request_duration_seconds_sum{") && !strings.Contains(k, `"stats"`) && !strings.Contains(k, `"ping"`) {
			serverNs += (v - a.metrics[k]) * 1e9
		}
	}
	rep.set("wire.self_us_per_call", div(float64(totals.rpcBusy)-serverNs, float64(d["total"]))/1e3, "us")
	var drainRecs, drainBytes, drainNs float64
	for _, l := range logs {
		if l.endpoint == "scan/all" {
			drainRecs += float64(l.records)
			drainBytes += float64(l.bytes)
		}
	}
	k := `cpdb_http_request_duration_seconds_sum{endpoint="scan/all"}`
	drainNs = (b.metrics[k] - a.metrics[k]) * 1e9
	rep.set("wire.bytes_per_rec", div(drainBytes, drainRecs), "B")
	rep.set("server.drain_us_per_rec", div(drainNs, drainRecs)/1e3, "us")
	for _, cache := range []string{"page", "plan"} {
		h := fmt.Sprintf(`cpdb_cache_hits_total{cache="%s"}`, cache)
		m := fmt.Sprintf(`cpdb_cache_misses_total{cache="%s"}`, cache)
		hits, misses := b.metrics[h]-a.metrics[h], b.metrics[m]-a.metrics[m]
		rep.set("cache."+cache+"_hit_ratio", div(hits, hits+misses), "ratio")
		rep.note("cache %s: %.0f hits, %.0f misses", cache, hits, misses)
	}
	rep.note("round trips by endpoint: %v", d)
}

// A logLine is one request of the daemon's request log.
type logLine struct {
	endpoint       string
	records, bytes int64
}

// readRequestLog parses the daemon's request log from byte offset from.
func readRequestLog(file string, from int64) ([]logLine, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(from, 0); err != nil {
		return nil, err
	}
	var out []logLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var l logLine
		for _, field := range strings.Fields(sc.Text()) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "endpoint":
				l.endpoint = v
			case "records":
				l.records, _ = strconv.ParseInt(v, 10, 64)
			case "bytes":
				l.bytes, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if l.endpoint != "" {
			out = append(out, l)
		}
	}
	return out, sc.Err()
}
