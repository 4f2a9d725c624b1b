package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime/metrics"
	"time"

	"repro/internal/path"
	"repro/internal/provstore"
)

const nKinds = int(kDrain) + 1

// A drainSample is one full Records drain.
type drainSample struct {
	recs   int64
	d      time.Duration
	allocs uint64 // heap objects allocated by the client process
	bytes  uint64 // heap bytes allocated by the client process
}

// A pass is what one closed-loop run of the sequence observed.
type pass struct {
	calls     int // seqGen.next calls executed
	attempted int
	failed    int
	firstErr  string
	// lat holds the latency of every successful operation, by kind.
	lat [nKinds][]time.Duration
	// allocs counts heap objects allocated during successful operations,
	// by kind (only when counting allocations).
	allocs [nKinds]uint64
	// busy is the time spent in all operations, failed ones included,
	// except the first drain (a cold drain in one pass would be a warm one
	// in the other).
	busy   time.Duration
	drains []drainSample
	// answers hashes every question's answer in order; sampled keeps the
	// answers the oracle re-checks, by question number (nAsked counts every
	// question asked, failed ones too).
	answers uint64
	hash    hash.Hash64
	sampled map[int]string
	nAsked  int
	// txns holds each committed transaction's successful edits and its
	// Apply+Commit time; txnEdits and txnBusy add up the open one. sizes
	// holds the store's bytes per record after each drain.
	txns     []txnSample
	txnEdits int
	txnBusy  time.Duration
	sizes    []float64

	ac     *allocCounter                     // nil: allocations not counted
	sizeOf func(recs int64) (float64, error) // nil: sizes not sampled
}

// A txnSample is one transaction's edits and Apply+Commit time.
type txnSample struct {
	edits int
	busy  time.Duration
}

// editRates splits the run's transactions into rateGroups consecutive
// groups and returns each group's edits per second of Apply+Commit time.
// Their median, not the whole run's ratio, is edit_ops_per_s: a few
// stalls (a GC pause, a slow fsync) in a run with a few hundred edits
// would otherwise move the ratio by half. Each group still spans many
// group-commit flushes in the edit-heavy workloads.
func (p *pass) editRates() []float64 {
	const rateGroups = 20
	var out []float64
	n := len(p.txns)
	for g := 0; g < rateGroups && n > 0; g++ {
		var edits int
		var busy time.Duration
		for _, t := range p.txns[g*n/rateGroups : (g+1)*n/rateGroups] {
			edits += t.edits
			busy += t.busy
		}
		if busy > 0 {
			out = append(out, float64(edits)/busy.Seconds())
		}
	}
	return out
}

func newPass(ac *allocCounter, sizeOf func(int64) (float64, error)) *pass {
	return &pass{sampled: make(map[int]string), hash: fnv.New64a(), ac: ac, sizeOf: sizeOf}
}

// oracleEvery and oracleMax fix which answers the correctness check
// re-derives with the legacy engine: every oracleEvery-th question, at most
// oracleMax of them.
const (
	oracleEvery = 16
	oracleMax   = 120
)

// A limit ends a pass: at a deadline (a timed run) or after a fixed number
// of sequence steps (a traced run, whose counts must repeat exactly).
type limit struct {
	deadline time.Time
	calls    int
}

func (l limit) done(calls int) bool {
	if l.calls > 0 {
		return calls >= l.calls
	}
	return !time.Now().Before(l.deadline)
}

// allocCounter reads the Go runtime's cumulative heap allocation counters
// without stopping the world.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (a *allocCounter) read() (objects, bytes uint64) {
	if a == nil {
		return 0, 0
	}
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// runItems applies untimed items (the preload) and fails on the first
// error: set-up must succeed for a run to mean anything.
func runItems(st stack, items []item) error {
	for _, it := range items {
		var err error
		if it.kind == kCommit {
			err = st.commit()
		} else {
			err = st.apply(it.op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loop drives the timed sequence through st as one closed-loop client:
// each operation starts when the previous one has returned. It adds to p,
// which may hold an earlier part of the same pass.
func loop(st stack, g *seqGen, lim limit, p *pass) *pass {
	h, ac := p.hash, p.ac
	ctx := context.Background()
	for !lim.done(p.calls) {
		call := p.calls
		p.calls++
		for _, it := range g.next() {
			p.attempted++
			o0, b0 := ac.read()
			t0 := time.Now()
			var err error
			var ans string
			var n int64
			qi := p.nAsked
			if it.kind.question() {
				p.nAsked++
			}
			switch {
			case it.kind == kEdit:
				err = st.apply(it.op)
			case it.kind == kCommit:
				err = st.commit()
			case it.kind.question():
				ans, err = st.ask(it.kind, it.at)
			default:
				n, _, err = drain(ctx, st)
			}
			d := time.Since(t0)
			o1, b1 := ac.read()
			if it.kind != kDrain || len(p.drains) > 0 {
				p.busy += d
			}
			if err != nil {
				if p.failed == 0 {
					p.firstErr = fmt.Sprintf("step %d %s %s: %v", call, it.kind, it.at, err)
				}
				p.failed++
				continue
			}
			p.lat[it.kind] = append(p.lat[it.kind], d)
			p.allocs[it.kind] += o1 - o0
			switch {
			case it.kind == kEdit:
				p.txnEdits++
				p.txnBusy += d
			case it.kind == kCommit:
				p.txns = append(p.txns, txnSample{p.txnEdits, p.txnBusy + d})
				p.txnEdits, p.txnBusy = 0, 0
			case it.kind == kDrain:
				p.drains = append(p.drains, drainSample{recs: n, d: d, allocs: o1 - o0, bytes: b1 - b0})
				if p.sizeOf != nil {
					if size, err := p.sizeOf(n); err == nil {
						p.sizes = append(p.sizes, size)
					} else if p.failed++; p.firstErr == "" {
						p.firstErr = fmt.Sprintf("step %d store size: %v", call, err)
					}
				}
			case it.kind.question():
				hashAnswer(h, it.kind, it.at, ans)
				if qi%oracleEvery == 0 && len(p.sampled) < oracleMax {
					p.sampled[qi] = ans
				}
			}
		}
	}
	p.answers = h.Sum64()
	return p
}

func hashAnswer(h hash.Hash64, k kind, at path.Path, ans string) {
	h.Write([]byte{byte(k)})
	h.Write([]byte(at.String()))
	h.Write([]byte{0})
	h.Write([]byte(ans))
	h.Write([]byte{0})
}

// drain reads the whole (Tid, Loc)-ordered table through st and returns its
// record count and a hash of its rows.
func drain(ctx context.Context, st stack) (int64, uint64, error) {
	return tableHash(func(fn func(provstore.Record)) error { return st.records(ctx, fn) })
}

// tableHash hashes a table given as a record stream in (Tid, Loc) order.
func tableHash(scan func(func(provstore.Record)) error) (int64, uint64, error) {
	h := fnv.New64a()
	var n int64
	var buf []byte
	err := scan(func(r provstore.Record) {
		buf = binary.AppendVarint(buf[:0], r.Tid)
		buf = append(buf, byte(r.Op))
		buf = r.Loc.AppendBinary(buf)
		buf = append(buf, 0xff) // never in a label: labels are UTF-8
		buf = r.Src.AppendBinary(buf)
		h.Write(buf)
		n++
	})
	return n, h.Sum64(), err
}
