// Package provnet connects the provenance store to the simulated network:
// it wraps a provstore.Backend so that every backend method — one logical
// round trip to the provenance database, per the paper's architecture —
// charges a netsim connection. Writes and reads can be priced separately
// (an INSERT round trip through JDBC costs more than a point SELECT).
package provnet

import (
	"context"
	"iter"

	"repro/internal/path"
	"repro/internal/provstore"
)

// A Caller is the slice of netsim.Conn this package needs; it is satisfied
// by *netsim.Conn.
type Caller interface {
	Call(records, bytes int) error
}

// ChargedBackend wraps a backend, charging write round trips to Write and
// read round trips to Read. A failed (fault-injected) round trip aborts the
// operation before it reaches the wrapped backend, as a dropped network
// call would. A cancelled context aborts before the round trip is even
// charged — the caller hung up before dialing.
type ChargedBackend struct {
	inner provstore.Backend
	write Caller
	read  Caller
}

var _ provstore.Backend = (*ChargedBackend)(nil)

// New wraps inner with the given write and read connections.
func New(inner provstore.Backend, write, read Caller) *ChargedBackend {
	return &ChargedBackend{inner: inner, write: write, read: read}
}

// Unwrap returns the charged backend (see provstore.Walk).
func (b *ChargedBackend) Unwrap() provstore.Backend { return b.inner }

func recordsBytes(recs []provstore.Record) int {
	n := 0
	for _, r := range recs {
		n += r.EncodedSize()
	}
	return n
}

// Append implements provstore.Backend: one write round trip carrying the
// whole batch.
func (b *ChargedBackend) Append(ctx context.Context, recs []provstore.Record) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.write.Call(len(recs), recordsBytes(recs)); err != nil {
		return err
	}
	return b.inner.Append(ctx, recs)
}

// Lookup implements provstore.Backend: one read round trip.
func (b *ChargedBackend) Lookup(ctx context.Context, tid int64, loc path.Path) (provstore.Record, bool, error) {
	if err := ctx.Err(); err != nil {
		return provstore.Record{}, false, err
	}
	if err := b.read.Call(1, 0); err != nil {
		return provstore.Record{}, false, err
	}
	return b.inner.Lookup(ctx, tid, loc)
}

// NearestAncestor implements provstore.Backend: one read round trip (the
// ancestor probing happens server-side, as in the paper's stored
// procedures).
func (b *ChargedBackend) NearestAncestor(ctx context.Context, tid int64, loc path.Path) (provstore.Record, bool, error) {
	if err := ctx.Err(); err != nil {
		return provstore.Record{}, false, err
	}
	if err := b.read.Call(1, 0); err != nil {
		return provstore.Record{}, false, err
	}
	return b.inner.NearestAncestor(ctx, tid, loc)
}

// chargedScan prices one scan round trip: the inner cursor is drained
// first — the simulated wire ships the whole result set in one reply, and
// its cost depends on how many records that is — then the round trip is
// charged and the records replayed to the consumer. Materializing here is
// deliberate: this wrapper exists to account simulated network cost, not to
// bound memory, and pricing must match the paper's per-reply model.
func (b *ChargedBackend) chargedScan(scan iter.Seq2[provstore.Record, error]) iter.Seq2[provstore.Record, error] {
	return func(yield func(provstore.Record, error) bool) {
		recs, err := provstore.CollectScan(scan)
		if err != nil {
			yield(provstore.Record{}, err)
			return
		}
		if err := b.read.Call(len(recs), recordsBytes(recs)); err != nil {
			yield(provstore.Record{}, err)
			return
		}
		for _, r := range recs {
			if !yield(r, nil) {
				return
			}
		}
	}
}

// ScanTid implements provstore.Backend: one read round trip shipping the
// result set back.
func (b *ChargedBackend) ScanTid(ctx context.Context, tid int64) iter.Seq2[provstore.Record, error] {
	return b.chargedScan(b.inner.ScanTid(ctx, tid))
}

// ScanLoc implements provstore.Backend.
func (b *ChargedBackend) ScanLoc(ctx context.Context, loc path.Path) iter.Seq2[provstore.Record, error] {
	return b.chargedScan(b.inner.ScanLoc(ctx, loc))
}

// ScanLocPrefix implements provstore.Backend.
func (b *ChargedBackend) ScanLocPrefix(ctx context.Context, prefix path.Path) iter.Seq2[provstore.Record, error] {
	return b.chargedScan(b.inner.ScanLocPrefix(ctx, prefix))
}

// ScanLocWithAncestors implements provstore.Backend: one read round trip.
func (b *ChargedBackend) ScanLocWithAncestors(ctx context.Context, loc path.Path) iter.Seq2[provstore.Record, error] {
	return b.chargedScan(b.inner.ScanLocWithAncestors(ctx, loc))
}

// ScanAll implements provstore.Backend: one read round trip shipping the
// whole relation.
func (b *ChargedBackend) ScanAll(ctx context.Context) iter.Seq2[provstore.Record, error] {
	return b.chargedScan(b.inner.ScanAll(ctx))
}

// ScanAllAfter implements provstore.Backend: one read round trip shipping
// the relation's tail after the keyset position.
func (b *ChargedBackend) ScanAllAfter(ctx context.Context, tid int64, loc path.Path) iter.Seq2[provstore.Record, error] {
	return b.chargedScan(b.inner.ScanAllAfter(ctx, tid, loc))
}

// Tids implements provstore.Backend.
func (b *ChargedBackend) Tids(ctx context.Context) ([]int64, error) {
	tids, err := b.inner.Tids(ctx)
	if err != nil {
		return nil, err
	}
	if err := b.read.Call(len(tids), 8*len(tids)); err != nil {
		return nil, err
	}
	return tids, nil
}

// MaxTid implements provstore.Backend.
func (b *ChargedBackend) MaxTid(ctx context.Context) (int64, error) {
	if err := b.read.Call(1, 8); err != nil {
		return 0, err
	}
	return b.inner.MaxTid(ctx)
}

// Count implements provstore.Backend.
func (b *ChargedBackend) Count(ctx context.Context) (int, error) {
	if err := b.read.Call(1, 8); err != nil {
		return 0, err
	}
	return b.inner.Count(ctx)
}

// Bytes implements provstore.Backend.
func (b *ChargedBackend) Bytes(ctx context.Context) (int64, error) {
	if err := b.read.Call(1, 8); err != nil {
		return 0, err
	}
	return b.inner.Bytes(ctx)
}
