package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// openPreloaded opens the workload's session and applies the preload,
// returning the set-up time (input generation excluded: pre is already
// generated).
func openPreloaded(e *env, pre []item) (*sessionStack, time.Duration, error) {
	t0 := time.Now()
	st, err := openSession(e)
	if err != nil {
		return nil, 0, err
	}
	if err := runItems(st, pre); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	return st, time.Since(t0), nil
}

// shutdown stops the workload's daemon, if one is running.
func (e *env) shutdown() {
	if e.daemon != nil {
		e.daemon.stop()
		e.daemon = nil
	}
}

// timedRun is a -trace 0 run: set up sp.setups times (the last set-up
// serves the run), drive the sequence until the deadline, then check.
func timedRun(e *env, cfg config) (*report, error) {
	defer e.shutdown()
	sp := e.sp
	g := newSeqGen(sp, e.in, cfg.seed)
	pre := g.preload()
	var setups []float64
	var st *sessionStack
	for i := 0; i < sp.setups; i++ {
		s, d, err := openPreloaded(e, pre)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < sp.setups-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		} else {
			st = s
		}
	}

	// Collect the discarded set-ups' garbage so every run starts from the
	// same heap state.
	runtime.GC()
	// A drain that opens the sequence is the cold drain of a fresh client
	// process; it is reported on its own and runs before the clock starts.
	p := newPass(nil, func(recs int64) (float64, error) { return storeBytesPerRec(e, st, recs) })
	if sp.drainFirst {
		loop(st, g, limit{calls: 1}, p)
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	// A run always gets through its probe, however slow the machine, and
	// the peak memory is read there, at the same store size on every run.
	if sp.probeAt > 0 {
		loop(st, g, limit{calls: sp.probeAt + 1}, p)
	}
	peak, err := peakRSS(e)
	if err != nil {
		return nil, err
	}
	loop(st, g, limit{deadline: deadline}, p)
	if err := finish(st, g); err != nil {
		p.failed++
	}
	if sp.probeAt == 0 {
		if peak, err = peakRSS(e); err != nil {
			return nil, err
		}
	}
	// The final table is for the correctness check; its drain is not a
	// sample, since the store's size there depends on how far the run got.
	n, h, err := drain(context.Background(), st)
	if err != nil {
		return nil, fmt.Errorf("final drain: %w", err)
	}
	perRec, err := storeBytesPerRec(e, st, n)
	if err != nil {
		return nil, err
	}
	p.sizes = append(p.sizes, perRec)
	if err := st.close(); err != nil {
		return nil, err
	}
	e.shutdown()

	bad, first, err := check(sp, e.in, cfg.seed, p.calls, p.sampled, table{n, h})
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	rep := &report{Correct: bad == 0, Attempted: p.attempted, Failed: p.failed + bad, Metrics: map[string]metric{}}
	if first != "" {
		rep.note("MISMATCH (%d): %s", bad, first)
	}
	if p.firstErr != "" {
		rep.note("FAILED (%d): first at %s", p.failed, p.firstErr)
	}
	rep.note("workload %s seed %d: %d steps, %d operations, %d records at the end, %d answers checked against the legacy engine",
		sp.name, cfg.seed, p.calls, p.attempted, n, len(p.sampled))
	endToEnd(rep, p, setups, peak)
	return rep, nil
}

// peakRSS is the peak resident set of the processes running the system:
// this one, plus the daemon for the remote workload.
func peakRSS(e *env) (float64, error) {
	mb, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return 0, err
	}
	if e.daemon != nil {
		d, err := e.daemon.peakRSSMB()
		if err != nil {
			return 0, err
		}
		mb += d
	}
	return mb, nil
}

// storeBytesPerRec returns the store's size per record: Backend.Bytes for
// an in-memory store (local or behind the daemon), the database plus
// write-ahead-log file sizes for a relational one. The log is truncated at
// checkpoints, so a relational store's size saw-tooths; the run reports
// the median of a sample taken after every drain.
func storeBytesPerRec(e *env, st stack, recs int64) (float64, error) {
	if recs == 0 {
		return 0, nil
	}
	var size int64
	if e.sp.store == "rel" {
		db, wal, err := relFileBytes(e)
		if err != nil {
			return 0, err
		}
		size = db + wal
	} else {
		b, err := st.backend().Bytes(context.Background())
		if err != nil {
			return 0, err
		}
		size = b
	}
	return float64(size) / float64(recs), nil
}

// relFileBytes returns the sizes of the newest relational store's database
// and write-ahead-log files.
func relFileBytes(e *env) (db, wal int64, err error) {
	file := filepath.Join(e.dir, fmt.Sprintf("prov-%d.db", e.nOpen))
	fi, err := os.Stat(file)
	if err != nil {
		return 0, 0, err
	}
	wi, err := os.Stat(file + ".wal")
	if err != nil {
		return 0, 0, err
	}
	return fi.Size(), wi.Size(), nil
}

// endToEnd fills the end-to-end metrics of a timed run.
func endToEnd(rep *report, p *pass, setups []float64, peak float64) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	rep.set("setup_s", median(setups), "s")

	if rates := p.editRates(); len(rates) > 0 {
		rep.set("edit_ops_per_s", median(rates), "ops/s")
	}
	var locq []time.Duration
	for _, k := range []kind{kTrace, kSrc, kHist} {
		locq = append(locq, p.lat[k]...)
	}
	for _, m := range []struct {
		name string
		lat  []time.Duration
	}{{"edit", p.lat[kEdit]}, {"commit", p.lat[kCommit]}, {"locq", locq}, {"mod", p.lat[kMod]}} {
		if len(m.lat) == 0 {
			continue
		}
		s := slices.Clone(m.lat)
		slices.Sort(s)
		rep.set(m.name+"_p50_us", us(quantile(s, 0.50)), "us")
		// A p99 needs enough samples to mean anything; below that it is
		// not reported at all.
		if len(s) >= 1000 {
			rep.note("%s_p99_us %.2f us (n=%d)", m.name, us(quantile(s, 0.99)), len(s))
		} else {
			rep.note("%s_p99_us not reported: %d samples (< 1000)", m.name, len(s))
		}
	}
	if len(p.drains) > 1 {
		var rates []float64
		for _, d := range p.drains[1:] {
			rates = append(rates, float64(d.recs)/d.d.Seconds())
		}
		rep.set("drain_recs_per_s", median(rates), "rec/s")
		// One sample per process: too noisy to gate, so it is printed only.
		rep.note("cold_drain_ms %.3f ms (the run's first drain, %d records; %d warm drains)",
			float64(p.drains[0].d)/1e6, p.drains[0].recs, len(rates))
	}
	rep.set("mem_peak_mb", peak, "MB")
	rep.set("store_bytes_per_rec", median(p.sizes), "B/rec")
	rep.note("fail_frac %.6f (%d of %d)", float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
}

// quantile is the nearest-rank quantile of sorted s.
func quantile(s []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
