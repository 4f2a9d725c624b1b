package main

import (
	"cmp"
	"slices"
	"strings"
)

// spanAgg sums spans of one name.
type spanAgg struct {
	calls      int64
	busy, self int64 // ns
	n, aux     int64
}

// unionLen is the total length of the union of intervals [a, b): time two
// concurrent spans share is counted once.
func unionLen(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var sum, end int64 = 0, -1
	for _, v := range iv {
		if v[0] > end {
			sum += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

// appendSegs adds s's busy intervals, clipped to [lo, hi), to iv.
func appendSegs(iv [][2]int64, s span, lo, hi int64) [][2]int64 {
	for j := 0; j+1 < len(s.segs); j += 2 {
		if a, b := max(s.segs[j], lo), min(s.segs[j+1], hi); b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	return iv
}

// covered returns, for every span, how much of its lifetime its children
// were busy.
func covered(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, kids := range children {
		iv = iv[:0]
		for _, c := range kids {
			iv = appendSegs(iv, spans[c], spans[i].Start, spans[i].End)
		}
		out[i] = unionLen(iv)
	}
	return out
}

// layers computes the span-derived per-layer metrics. A span's self time
// is its busy time minus the part its children cover. A layer's time in a
// question or a drain is the union of its spans' busy intervals under that
// operation, so cursors the program primes concurrently count once.
func layers(spans []span, sp *spec) (map[string]float64, spanTotals) {
	childBusy := covered(spans)
	root := make([]int32, len(spans)) // the client operation's span
	by := map[string]*spanAgg{}
	add := func(key string, s span, self int64) {
		a := by[key]
		if a == nil {
			a = &spanAgg{}
			by[key] = a
		}
		a.calls++
		a.busy += s.Busy
		a.self += self
		a.n += s.N
		a.aux += s.Aux
	}
	// under["question>store"][root] holds the store's busy intervals in
	// one question.
	under := map[string]map[int32][][2]int64{}
	var edits, copies, commits, questions int64
	for i, s := range spans {
		root[i] = int32(i)
		pName := ""
		if s.Parent >= 0 {
			root[i] = root[s.Parent] // a parent precedes its children
			pName = spans[s.Parent].Name
		}
		self := s.Busy - childBusy[i]
		layer, method, _ := strings.Cut(s.Name, ".")
		pLayer, _, _ := strings.Cut(pName, ".")
		add(s.Name, s, self)
		add(layer+".*", s, self)
		switch {
		case s.Name == "editor.Apply":
			edits++
		case s.Name == "editor.Commit":
			commits++
		case s.Name == "source.CopyNode":
			copies++
		case layer == "plan":
			questions++
		}
		if pLayer == "tracker" {
			add("tracker>"+method, s, self) // backend calls the tracker makes
			add("tracker>*", s, self)
		}
		if pLayer == "batch" && (method == "Append" || method == "AppendBatch") {
			add("flush>"+layer, s, self)
		}
		rootLayer, _, _ := strings.Cut(spans[root[i]].Name, ".")
		if op := map[string]string{"plan": "question>", "client": "drain>"}[rootLayer]; op != "" && root[i] != int32(i) {
			key := op + layer
			add(key, s, self)
			if under[key] == nil {
				under[key] = map[int32][][2]int64{}
			}
			under[key][root[i]] = appendSegs(under[key][root[i]], s, s.Start, s.End)
		}
	}
	get := func(k string) spanAgg {
		if a := by[k]; a != nil {
			return *a
		}
		return spanAgg{}
	}
	wall := func(k string) int64 {
		var sum int64
		for _, iv := range under[k] {
			sum += unionLen(iv)
		}
		return sum
	}
	per := func(v, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(v) / float64(d)
	}
	us := func(ns, d int64) float64 { return per(ns, d) / 1e3 }
	out := map[string]float64{}
	out["editor.self_us_per_edit"] = us(get("editor.Apply").self, edits)
	out["target.us_per_edit"] = us(get("target.*").busy, edits)
	out["source.us_per_copy"] = us(get("source.CopyNode").busy, copies)
	var trackerSelf int64
	for _, m := range []string{"OnInsert", "OnDelete", "OnCopy", "Begin"} {
		trackerSelf += get("tracker." + m).self
	}
	out["tracker.self_us_per_edit"] = us(trackerSelf, edits)
	out["tracker.commit_self_us"] = us(get("tracker.Commit").self, commits)
	out["tracker.records_per_commit"] = per(get("tracker>Append").n, commits)
	out["tracker.backend_calls_per_edit"] = per(get("tracker>*").calls, edits)
	// The store.* metrics are of the innermost store, whichever it is: the
	// MemBackend, the relational store, or the cpdb:// client's round trips.
	store := storeLayer[sp.store]
	app, group := get(store+".Append"), get(store+".AppendBatch")
	out["store.append_us_per_rec"] = us(app.busy+group.busy, app.n+group.n)
	out["store.scan_us_per_question"] = us(wall("question>"+store), questions)
	out["store.scan_calls_per_question"] = per(get("question>"+store).calls, questions)
	out["store.drain_us_per_rec"] = us(wall("drain>"+store), get("drain>"+store).n)
	var planSelf, rows, scanned int64
	for _, k := range []kind{kTrace, kSrc, kHist, kMod} {
		a := get("plan." + k.String())
		planSelf += a.self
		rows += a.n
		scanned += a.aux
	}
	out["plan.self_us_per_question"] = us(planSelf, questions)
	out["plan.recs_pulled_per_row"] = per(scanned, rows)
	if sp.batch > 1 {
		f := get("flush>" + store)
		out["batch.recs_per_flush"] = per(f.n, f.calls)
		out["rel.append_us_per_flush"] = us(f.busy, f.calls)
	}
	if store == "rel" {
		out["rel.scan_us_per_question"] = us(wall("question>rel"), questions)
	}
	return out, spanTotals{questions: questions, commits: commits, rpcBusy: get("rpc.*").busy}
}

// spanTotals are the span counts the daemon-side metrics divide by.
type spanTotals struct {
	questions, commits int64
	rpcBusy            int64 // ns the client spent in cpdb:// calls
}
