package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/path"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/workload"
)

// The target and source databases, named as in the paper's deployment.
const (
	targetName = "MiMI"
	sourceName = "OrganelleDB"
	txnLen     = 5 // curator operations per transaction (§4.1)
	// preloadSeed seeds the edits of a preloaded store and the order mods
	// visit the entries in (internal/bench's default seed).
	preloadSeed = 2006
)

// kind is one step of the client's sequence.
type kind uint8

const (
	kEdit kind = iota
	kCommit
	kTrace
	kSrc
	kHist
	kMod
	kDrain
)

var kindNames = [...]string{"edit", "commit", "trace", "src", "hist", "mod", "drain"}

func (k kind) String() string { return kindNames[k] }

// question reports whether k is a provenance question.
func (k kind) question() bool { return k >= kTrace && k <= kMod }

// An item is one step of the seeded sequence: an edit (op), a commit, a
// question at a location live at that point, or a full Records drain.
type item struct {
	kind kind
	op   update.Op
	at   path.Path
}

// recentN is how many recently edited locations the question chooser
// favours.
const recentN = 32

// entryOrder is the order mods visit the target's molN entries in. A mod's
// cost follows its entry's whole history and a run asks few mods (about
// 40 in query, where each scans the 64k-record store a hundred times), so
// drawing the entries anew for every seed moved the median mod by a third;
// with a fixed order every run asks about the same entries.
var entryOrder = rand.New(rand.NewSource(preloadSeed)).Perm(dataset.DefaultMiMI.Entries)

// A seqGen emits a workload's sequence one item at a time. The edits come
// from the paper's mix pattern (internal/workload); the generator keeps its
// own mirror of the target so every question names a location that is live
// at that point. Output is a pure function of (spec, seed).
type seqGen struct {
	sp      *spec
	rng     *rand.Rand
	edits   *workload.Generator
	mirror  *tree.Forest
	live    livePaths
	recent  [recentN]path.Path
	nRecent int
	nMods   int // steps the mod entry cycle has taken
	inTxn   int
	nItems  int // items emitted after the preload
}

// inputs are the generated databases a stack is opened over: the MiMI-like
// target and OrganelleDB-like source at internal/bench's sizes.
type inputs struct {
	target *tree.Node
	source *tree.Node
}

func genInputs() inputs {
	return inputs{
		target: dataset.GenMiMI(dataset.DefaultMiMI),
		source: dataset.GenOrganelleTree(dataset.DefaultOrganelle),
	}
}

func newSeqGen(sp *spec, in inputs, seed int64) *seqGen {
	g := &seqGen{
		sp:     sp,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		mirror: tree.NewForest(),
		live:   newLivePaths(),
	}
	editSeed := seed
	if sp.preload > 0 {
		// A preloaded store is part of the workload's dataset, fixed like
		// the MiMI and OrganelleDB stand-ins: the seed picks the operations
		// that follow, not the store they run against.
		editSeed = preloadSeed
	}
	g.edits = workload.New(workload.Config{
		Pattern:    workload.Mix,
		Deletion:   workload.DelRandom,
		Seed:       editSeed,
		TargetName: targetName,
		SourceName: sourceName,
	}, in.target, in.source)
	g.mirror.AddDB(targetName, in.target.Clone())
	g.mirror.AddDB(sourceName, in.source.Clone())
	root := path.New(targetName)
	in.target.Walk(func(rel path.Path, _ *tree.Node) error {
		if !rel.IsRoot() {
			g.live.add(root.Join(rel))
		}
		return nil
	})
	return g
}

// preload returns the set-up edits: sp.preload edits in whole
// transactions, each followed by its commit.
func (g *seqGen) preload() []item {
	out := make([]item, 0, g.sp.preload+g.sp.preload/txnLen+1)
	for i := 0; i < g.sp.preload; i++ {
		out = append(out, g.edit()...)
	}
	if g.inTxn > 0 {
		g.inTxn = 0
		out = append(out, item{kind: kCommit})
	}
	return out
}

// next returns the next items of the timed sequence: an edit (followed by
// its transaction's commit every txnLen edits), a question, a drain, or
// the whole read probe.
func (g *seqGen) next() []item {
	n := g.nItems
	g.nItems++
	sp := g.sp
	if sp.drainEvery > 0 && n%sp.drainEvery == 0 && (n > 0 || sp.drainFirst) {
		return []item{{kind: kDrain}}
	}
	if sp.probeAt > 0 && n == sp.probeAt {
		return g.probe()
	}
	if g.rng.Intn(1000) < sp.questionPerMille {
		if g.rng.Intn(1000) < sp.modPerMille {
			return []item{{kind: kMod, at: g.entry()}}
		}
		return []item{{kind: kTrace + kind(g.rng.Intn(3)), at: g.location()}}
	}
	return g.edit()
}

// probe returns the read probe: sp.probeSize questions over the store as
// it stands, with a drain before every sp.probeEvery-th. No edit runs
// meanwhile, so the recently edited favourites would be the same few
// locations: the probe's locations are drawn uniformly instead.
func (g *seqGen) probe() []item {
	var out []item
	for i := 0; i < g.sp.probeSize; i++ {
		if i%g.sp.probeEvery == 0 {
			out = append(out, item{kind: kDrain})
		}
		if g.rng.Intn(1000) < g.sp.modPerMille {
			out = append(out, item{kind: kMod, at: g.entry()})
		} else {
			out = append(out, item{kind: kTrace + kind(g.rng.Intn(3)), at: g.live.at(g.rng.Intn(g.live.len()))})
		}
	}
	return out
}

func (g *seqGen) edit() []item {
	op := g.edits.Next()
	g.track(op)
	out := []item{{kind: kEdit, op: op}}
	if g.inTxn++; g.inTxn == txnLen {
		g.inTxn = 0
		out = append(out, item{kind: kCommit})
	}
	return out
}

// track applies op to the mirror, keeping the live set and the ring of
// recently edited locations.
func (g *seqGen) track(op update.Op) {
	switch op := op.(type) {
	case update.Insert:
		p := op.Into.Child(op.Label)
		g.must(op.Apply(g.mirror))
		g.live.add(p)
		g.touch(p)
	case update.Delete:
		g.forget(op.From.Child(op.Label))
		g.must(op.Apply(g.mirror))
		g.touch(op.From)
	case update.Copy:
		if g.mirror.Has(op.Dst) {
			g.forget(op.Dst)
		}
		g.must(op.Apply(g.mirror))
		n, err := g.mirror.Get(op.Dst)
		g.must(err)
		n.Walk(func(rel path.Path, _ *tree.Node) error {
			g.live.add(op.Dst.Join(rel))
			return nil
		})
		g.touch(op.Dst)
	default:
		panic(fmt.Sprintf("cpdbperf: unexpected op %T", op))
	}
}

// must panics when the mirror rejects a generated edit: the generator
// validated it against its own mirror, so only a bug can get here.
func (g *seqGen) must(err error) {
	if err != nil {
		panic(fmt.Sprintf("cpdbperf: generated sequence diverged from its mirror: %v", err))
	}
}

func (g *seqGen) forget(root path.Path) {
	n, err := g.mirror.Get(root)
	g.must(err)
	n.Walk(func(rel path.Path, _ *tree.Node) error {
		g.live.remove(root.Join(rel))
		return nil
	})
}

func (g *seqGen) touch(p path.Path) {
	if p.Len() < 2 {
		return // the database root is not a question target
	}
	g.recent[g.nRecent%recentN] = p
	g.nRecent++
}

// location picks a live location: half the time one of the last recentN
// edited locations that is still live, otherwise a Zipf draw over every
// live node.
func (g *seqGen) location() path.Path {
	if g.nRecent > 0 && g.rng.Intn(2) == 0 {
		n := min(g.nRecent, recentN)
		for try := 0; try < 4; try++ {
			if p := g.recent[g.rng.Intn(n)]; g.mirror.Has(p) {
				return p
			}
		}
	}
	return g.live.at(zipf(g.rng, g.live.len()))
}

// entry returns the next live entry of the cycle through the first
// sp.modEntries entries of entryOrder (all of them when 0), or the entry
// holding a random live location when all of those have been deleted.
func (g *seqGen) entry() path.Path {
	root := path.New(targetName)
	cycle := entryOrder
	if g.sp.modEntries > 0 {
		cycle = entryOrder[:g.sp.modEntries]
	}
	for range cycle {
		i := cycle[g.nMods%len(cycle)]
		g.nMods++
		if p := root.Child(fmt.Sprintf("mol%d", i)); g.mirror.Has(p) {
			return p
		}
	}
	p := g.live.at(g.rng.Intn(g.live.len()))
	return path.New(p.At(0), p.At(1))
}

// zipf draws an index in [0, n) with Zipf(1.1) skew towards 0.
func zipf(r *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rand.NewZipf(r, 1.1, 1, uint64(n-1)).Uint64())
}

// livePaths is a set of paths with O(1) add, remove and indexed access.
type livePaths struct {
	idx   map[string]int
	items []path.Path
}

func newLivePaths() livePaths { return livePaths{idx: make(map[string]int)} }

func (s *livePaths) len() int           { return len(s.items) }
func (s *livePaths) at(i int) path.Path { return s.items[i] }

func (s *livePaths) add(p path.Path) {
	k := p.String()
	if _, ok := s.idx[k]; ok {
		return
	}
	s.idx[k] = len(s.items)
	s.items = append(s.items, p)
}

func (s *livePaths) remove(p path.Path) {
	k := p.String()
	i, ok := s.idx[k]
	if !ok {
		return
	}
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.idx[s.items[i].String()] = i
	s.items = s.items[:last]
	delete(s.idx, k)
}
