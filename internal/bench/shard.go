package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/path"
	"repro/internal/provstore"
	"repro/internal/relprov"
	"repro/internal/relstore"
	"repro/internal/update"
)

// This file is the sharding/batching sweep — not a reproduction of a paper
// artifact but the evaluation of this package's scaling work beyond it: how
// far concurrent provenance ingest gets past the paper's single-curator,
// one-row-per-round-trip write path when the store is partitioned into
// independently locked shards and appends are group-committed in batches.
// Unlike the figure experiments, it measures real wall-clock throughput,
// not virtual network time.

// ShardSweepConfig sizes the sweep.
type ShardSweepConfig struct {
	Workers   int   // concurrent ingest goroutines
	OpsPerW   int   // insert operations per worker
	TxnLen    int   // commit every N operations
	Shards    []int // shard counts to sweep
	Batches   []int // batch sizes (records per group commit) to sweep
	DiskOps   int   // operations for the on-disk group-commit table
	DiskBatch []int // batch sizes for the on-disk table
}

// DefaultShardSweep returns the standard sweep: up to 8 shards crossed with
// batch sizes up to 64, driven by one worker per shard slot.
func DefaultShardSweep() ShardSweepConfig {
	return ShardSweepConfig{
		Workers:   8,
		OpsPerW:   20000,
		TxnLen:    5,
		Shards:    []int{1, 2, 4, 8},
		Batches:   []int{1, 8, 64},
		DiskOps:   2000,
		DiskBatch: []int{1, 16, 128},
	}
}

// quickShardSweep shrinks the sweep for tests.
func quickShardSweep() ShardSweepConfig {
	c := DefaultShardSweep()
	c.OpsPerW = 2000
	c.DiskOps = 300
	return c
}

// IngestThroughput runs one cell of the sweep: w workers concurrently
// ingest opsPerW insert operations each (disjoint top-level subtrees,
// commit every txnLen ops) through one ShardedTracker into the given
// backend, and it returns records/second of wall clock.
func IngestThroughput(backend provstore.Backend, method provstore.Method, w, opsPerW, txnLen int) (float64, error) {
	// One tracker lane per shard, seen through a batching wrapper.
	lanes := 1
	if sb, ok := provstore.As[*provstore.ShardedBackend](backend); ok {
		lanes = sb.NumShards()
	}
	tr, err := provstore.NewShardedTracker(method, provstore.Config{Backend: backend}, lanes)
	if err != nil {
		return 0, err
	}
	if err := tr.Begin(); err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	errs := make([]error, w)
	start := time.Now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = ingestWorker(tr, i, opsPerW, txnLen)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if _, err := tr.Commit(); err != nil {
		return 0, err
	}
	if err := provstore.Flush(backend); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	n, err := backend.Count(context.Background())
	if err != nil {
		return 0, err
	}
	return float64(n) / elapsed, nil
}

// ingestWorker drives one worker's operation stream: inserts under the
// worker's own top-level subtree, committing that subtree's lane every
// txnLen operations. The shared tracker routes every operation of the
// subtree to one lane, so workers contend only on the store, which is what
// the sweep measures.
func ingestWorker(tr *provstore.ShardedTracker, worker, ops, txnLen int) error {
	root := path.New("MiMI", fmt.Sprintf("w%d", worker))
	for i := 0; i < ops; i++ {
		loc := root.Child(fmt.Sprintf("n%d", i))
		if err := tr.OnInsert(update.Effect{Inserted: []path.Path{loc}}); err != nil {
			return err
		}
		if txnLen > 0 && (i+1)%txnLen == 0 {
			if _, err := tr.CommitSubtree(root); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildSweepBackend assembles the backend of one in-memory sweep cell,
// through the DSN opener — the sweep exercises the same path a
// DSN-configured deployment uses.
func buildSweepBackend(shards, batch int) (provstore.Backend, error) {
	b, err := provstore.OpenDSN(fmt.Sprintf("mem://?shards=%d", shards))
	if err != nil {
		return nil, err
	}
	if batch > 1 {
		b = provstore.NewBatching(b, batch)
	}
	return b, nil
}

// DSNSweep measures ingest throughput through a caller-supplied backend
// DSN (cpdbbench -backend): for each batch size a fresh store is opened
// from the template, driven by the standard worker load, and closed. The
// template may contain {dir} (the scratch directory) and {batch} (the
// cell's batch size) so file-backed stores get one file set per cell, e.g.
//
//	-backend 'rel://{dir}/prov-{batch}.db?create=1&durable=1'
func DSNSweep(rc RunConfig, cfg ShardSweepConfig) (*Table, error) {
	t := &Table{
		ID:    "shard-dsn",
		Title: fmt.Sprintf("Concurrent ingest via OpenDSN(%s) (%d workers × %d ops)", rc.BackendDSN, cfg.Workers, cfg.OpsPerW),
	}
	t.Header = []string{"batch", "records/sec", "speedup"}
	var baseline float64
	for _, batch := range cfg.Batches {
		dsn := strings.ReplaceAll(rc.BackendDSN, "{dir}", rc.Dir)
		dsn = strings.ReplaceAll(dsn, "{batch}", strconv.Itoa(batch))
		backend, err := provstore.OpenDSN(dsn)
		if err != nil {
			return nil, err
		}
		if batch > 1 {
			backend = provstore.NewBatching(backend, batch)
		}
		rps, err := IngestThroughput(backend, provstore.Naive, cfg.Workers, cfg.OpsPerW, cfg.TxnLen)
		cerr := provstore.Close(backend)
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		if baseline == 0 {
			baseline = rps
		}
		t.AddRow(strconv.Itoa(batch), fmt.Sprintf("%.0f", rps), fmt.Sprintf("%.1fx", rps/baseline))
	}
	t.Note("store template: %s (lanes follow the opened store's shard count)", rc.BackendDSN)
	return t, nil
}

// ShardSweep measures concurrent ingest throughput across shard counts and
// batch sizes (in-memory store), plus the group-commit effect on the
// WAL-backed relational store, reporting records/sec and speedup over the
// single-shard, unbatched baseline.
func ShardSweep(rc RunConfig) ([]*Table, error) {
	cfg := DefaultShardSweep()
	if rc.StepsShort < 3500 { // Quick() and test configs run a small sweep
		cfg = quickShardSweep()
	}
	if rc.BackendDSN != "" {
		t, err := DSNSweep(rc, cfg)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}

	mem := &Table{
		ID:    "shard-mem",
		Title: fmt.Sprintf("Concurrent ingest, records/sec (%d workers × %d ops, naive method, in-memory shards)", cfg.Workers, cfg.OpsPerW),
	}
	mem.Header = []string{"shards"}
	for _, b := range cfg.Batches {
		mem.Header = append(mem.Header, fmt.Sprintf("batch=%d", b))
	}
	mem.Header = append(mem.Header, "speedup")

	var baseline float64
	for _, shards := range cfg.Shards {
		row := []string{fmt.Sprint(shards)}
		var best float64
		for _, batch := range cfg.Batches {
			cell, err := buildSweepBackend(shards, batch)
			if err != nil {
				return nil, err
			}
			rps, err := IngestThroughput(cell, provstore.Naive, cfg.Workers, cfg.OpsPerW, cfg.TxnLen)
			if err != nil {
				return nil, err
			}
			if baseline == 0 {
				baseline = rps // first cell: 1 shard, batch 1
			}
			if rps > best {
				best = rps
			}
			row = append(row, fmt.Sprintf("%.0f", rps))
		}
		row = append(row, fmt.Sprintf("%.1fx", best/baseline))
		mem.AddRow(row...)
	}
	mem.Note("speedup: best cell of the row vs the 1-shard batch=1 baseline")
	mem.Note("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))

	disk, err := groupCommitTable(rc, cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{mem, disk}, nil
}

// DurableShardedBackend builds a provenance backend over `shards` durable
// (WAL-backed, group-committing) relational stores created under dir with
// the given file-name tag, wrapped in a batching layer when batch > 1. The
// returned closer releases all shard databases.
func DurableShardedBackend(dir, tag string, shards, batch int) (provstore.Backend, func() error, error) {
	stores := make([]provstore.Backend, shards)
	backends := make([]*relprov.Backend, 0, shards)
	var looseDB *relstore.DB // created but not yet owned by a backend
	closeAll := func() error {
		var first error
		for _, rb := range backends {
			if err := rb.Close(); err != nil && first == nil {
				first = err
			}
		}
		if looseDB != nil {
			if err := looseDB.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for i := range stores {
		db, err := relstore.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.rel", tag, i)))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		looseDB = db
		w, err := relstore.CreateWAL(filepath.Join(dir, fmt.Sprintf("%s-%d.wal", tag, i)))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		rb, err := relprov.Create(db)
		if err != nil {
			w.Close()
			closeAll()
			return nil, nil, err
		}
		rb.EnableGroupCommit(w)
		looseDB = nil
		backends = append(backends, rb)
		stores[i] = rb
	}
	backend, err := provstore.NewSharded(stores...)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	if batch > 1 {
		return provstore.NewBatching(backend, batch), closeAll, nil
	}
	return backend, closeAll, nil
}

// groupCommitTable measures the on-disk write path: WAL-backed relational
// provenance shards where every append batch is durable. batch=1 pays one
// fsync per record — the write path the paper's per-row INSERTs imply —
// while batch=N group-commits N records per fsync, per shard.
func groupCommitTable(rc RunConfig, cfg ShardSweepConfig) (*Table, error) {
	t := &Table{
		ID:    "shard-wal",
		Title: fmt.Sprintf("Durable ingest on the WAL-backed relational store (%d records, 4 workers)", cfg.DiskOps),
	}
	t.Header = []string{"shards", "batch", "records/sec", "speedup"}
	const workers = 4
	var baseline float64
	for _, shards := range []int{1, 4} {
		for _, batch := range cfg.DiskBatch {
			tag := fmt.Sprintf("shard-wal-%d-%d", shards, batch)
			backend, closeAll, err := DurableShardedBackend(rc.Dir, tag, shards, batch)
			if err != nil {
				return nil, err
			}
			rps, err := IngestThroughput(backend, provstore.Naive, workers, cfg.DiskOps/workers, cfg.TxnLen)
			if err != nil {
				closeAll()
				return nil, err
			}
			if err := closeAll(); err != nil {
				return nil, err
			}
			if baseline == 0 {
				baseline = rps
			}
			t.AddRow(fmt.Sprint(shards), fmt.Sprint(batch), fmt.Sprintf("%.0f", rps), fmt.Sprintf("%.1fx", rps/baseline))
		}
	}
	t.Note("every append batch is durable before it returns: batch=1 fsyncs per record, batch=N once per N records per shard")
	return t, nil
}
