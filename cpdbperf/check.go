package main

import (
	"context"
	"fmt"

	cpdb "repro"
	"repro/internal/path"
	"repro/internal/provquery"
)

// A table is the final (Tid, Loc)-ordered provenance relation of a run,
// summarised as its size and a hash of its rows.
type table struct {
	recs int64
	hash uint64
}

// check replays the run's sequence — the preload and the first calls
// steps, with the same commit points — into a plain mem:// reference
// session. It compares the final table with got and re-derives every
// sampled answer with the provquery legacy engine on the reference, at the
// horizon the run had when it asked. It returns the number of mismatches
// and a description of the first.
func check(sp *spec, in inputs, seed int64, calls int, sampled map[int]string, got table) (int, string, error) {
	ref, err := cpdb.New(cpdb.Config{
		Target:  cpdb.NewMemTarget(targetName, in.target.Clone()),
		Sources: []cpdb.Source{cpdb.NewMemSource(sourceName, in.source.Clone())},
		Method:  cpdb.HierTrans,
	})
	if err != nil {
		return 0, "", err
	}
	st := &sessionStack{ref}
	g := newSeqGen(sp, in, seed)
	if err := runItems(st, g.preload()); err != nil {
		return 0, "", fmt.Errorf("reference preload: %w", err)
	}
	ctx := context.Background()
	oracle := provquery.New(ref.BackendStore())
	bad, first, qi := 0, "", 0
	for call := 0; call < calls; call++ {
		for _, it := range g.next() {
			switch {
			case it.kind == kEdit:
				err = st.apply(it.op)
			case it.kind == kCommit:
				err = st.commit()
			case it.kind.question():
				want, ok := sampled[qi]
				qi++
				if !ok {
					continue
				}
				var ans string
				ans, err = legacyAnswer(ctx, oracle, it.kind, it.at)
				if err == nil && ans != want {
					bad++
					if first == "" {
						first = fmt.Sprintf("%s %s at step %d: run answered %q, legacy engine %q", it.kind, it.at, call, want, ans)
					}
				}
			}
			if err != nil {
				return 0, "", fmt.Errorf("reference step %d (%s): %w", call, it.kind, err)
			}
		}
	}
	if err := finish(st, g); err != nil {
		return 0, "", fmt.Errorf("reference: %w", err)
	}
	n, h, err := drain(ctx, st)
	if err != nil {
		return 0, "", err
	}
	if n != got.recs || h != got.hash {
		bad++
		if first == "" {
			first = fmt.Sprintf("final table: run has %d records (hash %016x), reference %d (hash %016x)", got.recs, got.hash, n, h)
		}
	}
	return bad, first, nil
}

// finish commits the transaction a pass left open, so the last edits'
// records reach the store.
func finish(st stack, g *seqGen) error {
	if g.inTxn == 0 {
		return nil
	}
	g.inTxn = 0
	return st.commit()
}

// legacyAnswer asks the pre-plan query engine the same question at the
// store's current horizon, rendered like the run's answers.
func legacyAnswer(ctx context.Context, e *provquery.Engine, k kind, p path.Path) (string, error) {
	tnow, err := e.Backend().MaxTid(ctx)
	if err != nil {
		return "", err
	}
	switch k {
	case kTrace:
		tr, err := e.LegacyTrace(ctx, p, tnow)
		return traceAnswer(tr), err
	case kSrc:
		tid, ok, err := e.LegacySrc(ctx, p, tnow)
		return srcAnswer(tid, ok), err
	case kHist:
		tids, err := e.LegacyHist(ctx, p, tnow)
		return tidsAnswer(tids), err
	default:
		tids, err := e.LegacyMod(ctx, p, tnow)
		return tidsAnswer(tids), err
	}
}
