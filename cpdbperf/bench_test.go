package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	cpdb "repro"
	"repro/internal/provhttp"
	"repro/internal/provstore"
)

// daemonBin is cmd/cpdbd, built once for the remote workload's tests.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cpdbperf-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "cpdbd")
	if out, err := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/cpdbd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build cpdbd: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// quickEnv is a self-check-sized environment for one workload.
func quickEnv(t *testing.T, workload string) *env {
	t.Helper()
	sp, err := specByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	sp = sp.quick()
	return &env{sp: sp, in: genInputs(), dir: t.TempDir(), cpdbd: daemonBin}
}

var workloads = []string{"curate", "query", "remote", "durable"}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(rep *report) []string {
	var names []string
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tracedReports memoises one traced run per (workload, seed): the
// transparency and determinism tests share them.
var tracedReports sync.Map

func tracedReport(t *testing.T, workload string, seed int64) *report {
	t.Helper()
	key := fmt.Sprint(workload, seed)
	if rep, ok := tracedReports.Load(key); ok {
		return rep.(*report)
	}
	rep, err := tracedRun(quickEnv(t, workload), config{workload: workload, seed: seed, seconds: 1, trace: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	tracedReports.Store(key, rep)
	return rep
}

// TestQuickSelfCheck runs every workload in the self-check mode, timed and
// traced, and checks the JSON result carries exactly the metrics
// BENCHMARK.json declares.
func TestQuickSelfCheck(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep, err := timedRun(quickEnv(t, w), config{workload: w, seed: 3, seconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("timed run: correct=%v failed=%d attempted=%d\n%v", rep.Correct, rep.Failed, rep.Attempted, rep.details)
			}
			if got := metricNames(rep); !slices.Equal(got, endToEnd) {
				t.Errorf("timed metrics %v, want %v", got, endToEnd)
			}
			for name, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			if _, err := json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
			if got := metricNames(tracedReport(t, w, 7)); !slices.Equal(got, perLayer) {
				t.Errorf("traced metrics %v, want %v", got, perLayer)
			}
		})
	}
}

// TestDecoratorsForwardOptionalInterfaces checks that every decorated store
// implements exactly the optional interfaces the program type-asserts on
// its inner store.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	rel, err := cpdb.OpenBackend("rel://" + provstore.EscapeDSNPath(filepath.Join(t.TempDir(), "p.db")) + "?create=1&durable=1")
	if err != nil {
		t.Fatal(err)
	}
	defer provstore.Close(rel)
	for name, inner := range map[string]provstore.Backend{
		"mem":      provstore.NewMemBackend(),
		"rel":      rel,
		"batching": provstore.NewBatching(provstore.NewMemBackend(), 16),
		"cpdb":     provhttp.NewClient("127.0.0.1:1", provhttp.WithResultCache(1<<20)),
	} {
		b, err := traceBackend(inner, newRecorder(), "x")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := capabilities(b), capabilities(inner); got != want {
			t.Errorf("%s: decorator capabilities %06b, inner %06b", name, got, want)
		}
	}
}

// TestTracedRunIsTransparent: for every workload, the decorated pass gives
// byte-identical Records, identical answers and identical daemon endpoint
// counts to the plain pass, and both agree with the reference. tracedRun
// counts any difference as a failure.
func TestTracedRunIsTransparent(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep := tracedReport(t, w, 7)
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%v", rep.Correct, rep.Failed, rep.details)
			}
		})
	}
}

// countMetrics are the traced metrics that count work rather than time, so
// they must repeat exactly for a given seed.
var countMetrics = []string{
	"tracker.records_per_commit",
	"tracker.backend_calls_per_edit",
	"rpc.round_trips_per_question",
	"rpc.round_trips_per_commit",
	"plan.recs_pulled_per_row",
	"store.scan_calls_per_question",
	"batch.recs_per_flush",
	"rel.db_bytes_per_rec",
	"rel.wal_bytes_per_rec",
	"cache.client_hit_ratio",
}

// TestTracedCountsRepeat: two traced runs with the same seed give exactly
// the same counts.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a := tracedReport(t, w, 7)
			b, err := tracedRun(quickEnv(t, w), config{workload: w, seed: 7, seconds: 1, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range countMetrics {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v, then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// seqDigest renders the first n steps of a workload's sequence.
func seqDigest(sp *spec, in inputs, seed int64, n int) string {
	g := newSeqGen(sp, in, seed)
	out := fmt.Sprint(g.preload())
	for i := 0; i < n; i++ {
		for _, it := range g.next() {
			out += fmt.Sprintf("|%s %v %s", it.kind, it.op, it.at)
		}
	}
	return out
}

// TestSequenceFollowsSeed: the same seed gives the same operations, another
// seed different ones.
func TestSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		sp, _ := specByName(w)
		sp = sp.quick()
		in := genInputs()
		a, b, c := seqDigest(sp, in, 1, 3000), seqDigest(sp, in, 1, 3000), seqDigest(sp, in, 2, 3000)
		if a != b {
			t.Errorf("%s: seed 1 gave two different sequences", w)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w)
		}
	}
}

// faultyStore fails every k-th MaxTid call, up to limit faults. Every
// question and every drain calls MaxTid once, first, so each fault fails
// exactly one operation and leaves the store as it was.
type faultyStore struct {
	provstore.Backend
	k, limit     int
	calls, fails int
}

var errInjected = errors.New("injected fault")

func (f *faultyStore) MaxTid(ctx context.Context) (int64, error) {
	f.calls++
	if f.fails < f.limit && f.calls%f.k == 0 {
		f.fails++
		return 0, errInjected
	}
	return f.Backend.MaxTid(ctx)
}

// TestFailuresAreCounted: with a failing store the command keeps going,
// counts each failed operation once, never records a failed operation's
// latency, and still passes its correctness check.
func TestFailuresAreCounted(t *testing.T) {
	var store *faultyStore
	e := quickEnv(t, "query")
	e.wrapStore = func(b provstore.Backend) provstore.Backend {
		store = &faultyStore{Backend: b, k: 7, limit: 5}
		return store
	}

	// The loop itself.
	g := newSeqGen(e.sp, e.in, 5)
	st, _, err := openPreloaded(e, g.preload())
	if err != nil {
		t.Fatal(err)
	}
	p := loop(st, g, limit{calls: 400}, newPass(nil, nil))
	if store.fails != 5 || p.failed != store.fails {
		t.Fatalf("%d faults injected, %d operations failed; want 5 and 5", store.fails, p.failed)
	}
	ok := 0
	for _, lat := range p.lat {
		ok += len(lat)
	}
	if ok+p.failed != p.attempted {
		t.Errorf("%d latencies recorded + %d failed != %d attempted", ok, p.failed, p.attempted)
	}
	if err := finish(st, g); err != nil {
		t.Fatal(err)
	}
	n, h, err := drain(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	bad, first, err := check(e.sp, e.in, 5, p.calls, p.sampled, table{n, h})
	if err != nil || bad != 0 {
		t.Fatalf("check after faults: %d mismatches (%s), err %v", bad, first, err)
	}

	// The whole timed run reports them.
	e2 := quickEnv(t, "query")
	e2.wrapStore = e.wrapStore
	rep, err := timedRun(e2, config{workload: "query", seed: 5, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 5 {
		t.Fatalf("report: correct=%v failed=%d, want true and 5\n%v", rep.Correct, rep.Failed, rep.details)
	}
}
