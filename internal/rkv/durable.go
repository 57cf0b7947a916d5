package rkv

import (
	"errors"
	"fmt"

	"hquorum/internal/cluster"
	"hquorum/internal/optrace"
	"hquorum/internal/wal"
)

// This file is the disk storage backend: the glue between the replica's
// sharded map and the write-ahead log (package wal). The memory backend
// is every n.wal == nil fast path — byte-for-byte the pre-durability
// behavior.
//
// Ordering contract: a write is applied to the map and appended to the
// log under the same map-shard lock (applyLogged), so any handler that
// observes an entry is ordered after that entry's log append; its own
// commit barrier (wal.Sync) therefore covers the record, and no ack can
// reference state the log doesn't yet hold. Snapshots dump a shard
// under that same lock, making the dumped state a superset of every
// appended record — the invariant wal.SnapshotShard needs before the
// log may delete the segments the snapshot covers.

// clockLeaseChunk is how far ahead of the highest stamped counter a
// clock lease reaches. Larger chunks mean fewer lease commits (one per
// chunk of counter advances); the cost of a crash is only a skipped
// counter range, never a reused stamp.
const clockLeaseChunk = 4096

// errStorage reports a client round abandoned because the disk backend
// could not extend the clock lease — without it, stamping fresh
// versions would risk reusing a pre-crash stamp after restart.
var errStorage = errors.New("rkv: storage backend failed to extend clock lease")

// openStorage attaches the configured storage backend to a fresh node.
func (n *Node) openStorage() error {
	switch n.cfg.Storage {
	case "", "memory":
		return nil
	case "disk":
		if n.cfg.DataDir == "" {
			return fmt.Errorf("rkv: disk storage needs DataDir")
		}
		return n.openDisk()
	default:
		return fmt.Errorf("rkv: unknown storage %q (want memory or disk)", n.cfg.Storage)
	}
}

// openDisk opens the WAL under DataDir and replays it into the (empty)
// store: puts re-merge monotonically — replay over overlapping snapshot
// and stream history is idempotent, and stream records are routed by
// key — and clock leases raise the logical clock past every counter the
// previous incarnation may have stamped.
func (n *Node) openDisk() error {
	l, err := wal.Open(n.cfg.DataDir, wal.Options{
		Shards:        n.store.count(),
		SnapshotEvery: n.cfg.SnapshotEvery,
		NoSync:        n.cfg.WALNoSync,
	})
	if err != nil {
		return err
	}
	n.clock.Store(0)
	n.walLease = 0
	err = l.Replay(func(rec wal.Record) {
		switch rec.Kind {
		case wal.KindPut:
			ver := Version{Counter: rec.Counter, Writer: cluster.NodeID(rec.Writer)}
			n.store.apply(rec.Key, ver, rec.Value)
			n.mergeClock(rec.Counter)
		case wal.KindClock:
			// Jump the clock to the full lease: we cannot know how much
			// of it the crashed process used, so skip the whole range.
			n.mergeClock(rec.Counter)
			if rec.Counter > n.walLease {
				n.walLease = rec.Counter
			}
		}
	})
	if err != nil {
		l.Abandon()
		return err
	}
	n.wal = l
	return nil
}

// reopenDisk models a process restart inside the simulation: drop the
// in-memory store, abandon the old log handles (unsynced records are
// lost, as a SIGKILL would lose them) and recover from the files.
func (n *Node) reopenDisk() error {
	n.wal.Abandon()
	n.store = newShardedMap(n.cfg.Shards)
	return n.openDisk()
}

// applyPut merges one versioned write into the store, logging the
// change (under the shard lock) when the disk backend is on. It reports
// whether the write may be acknowledged once committed — false only
// when the log rejected the append (sticky I/O failure).
func (n *Node) applyPut(key string, ver Version, val string) bool {
	if n.wal == nil {
		n.store.apply(key, ver, val)
		return true
	}
	ok := true
	n.store.applyLogged(key, ver, val, func(shard int) {
		err := n.wal.Append(wal.Record{
			Shard:   shard,
			Kind:    wal.KindPut,
			Key:     key,
			Counter: ver.Counter,
			Writer:  uint64(ver.Writer),
			Value:   val,
		})
		if err != nil {
			ok = false
		}
	})
	return ok
}

// commitDurable is the group-commit barrier a replica crosses before
// acknowledging: every record appended so far — the whole quorum
// batch, typically — becomes durable under one write and one fsync of
// the log's stream. Reports whether the ack may be sent. On the memory
// backend it is free. rec (nil when unsampled) gets the barrier as its
// storage stage, with the WAL splitting it into group-commit wait vs
// fsync.
func (n *Node) commitDurable(rec *optrace.Rec) bool {
	if n.wal == nil {
		return true
	}
	rec.Begin(optrace.StageStorage)
	err := n.wal.SyncTraced(rec)
	rec.End(optrace.StageStorage)
	if err != nil {
		return false
	}
	n.maybeSnapshot()
	return true
}

// maybeSnapshot snapshots every shard the log marks due — one that
// appended SnapshotEvery records, or one whose old snapshot keeps the
// stream from shedding its oldest segment: the shard map is dumped and
// written as the new snapshot under the map-shard lock, so it is
// guaranteed to cover every record of the shard in the segments the log
// then deletes.
func (n *Node) maybeSnapshot() {
	for _, shard := range n.wal.SnapshotDue() {
		n.store.withShard(shard, func(m map[string]entry) {
			// Errors are sticky inside the log: the next commit fails
			// and the replica stops acknowledging.
			_ = n.wal.SnapshotShard(shard, recordsOf(shard, m))
		})
	}
}

// recordsOf converts one shard's map state to WAL put records. The log
// itself adds the clock lease to every snapshot.
func recordsOf(shard int, m map[string]entry) []wal.Record {
	recs := make([]wal.Record, 0, len(m))
	for k, e := range m {
		recs = append(recs, wal.Record{
			Shard:   shard,
			Kind:    wal.KindPut,
			Key:     k,
			Counter: e.ver.Counter,
			Writer:  uint64(e.ver.Writer),
			Value:   e.val,
		})
	}
	return recs
}

// ensureClockLease guarantees the node may stamp version counters up to
// at least c: a durable lease record promises this node never stamps
// past its lease, so a restarted node (which resumes at the replayed
// lease bound) can never reuse a pre-crash (counter, writer) stamp that
// might survive on remote replicas under a different value. Called on
// the event goroutine before each write phase ships stamped versions.
func (n *Node) ensureClockLease(c uint64) bool {
	if n.wal == nil || c <= n.walLease {
		return true
	}
	lease := c + clockLeaseChunk
	if n.wal.Commit(wal.Record{Shard: 0, Kind: wal.KindClock, Counter: lease}) != nil {
		return false
	}
	n.walLease = lease
	return true
}

// dumpRecords converts one shard's map state to WAL records (shutdown
// snapshot).
func (n *Node) dumpRecords(shard int) []wal.Record {
	var recs []wal.Record
	n.store.withShard(shard, func(m map[string]entry) {
		recs = recordsOf(shard, m)
	})
	return recs
}

// Close shuts the storage backend down cleanly: flush and fsync the
// log, snapshot every shard and write the clean-shutdown marker so the
// next start can skip segment replay. The memory backend is a no-op.
// Call it only after the node stopped serving traffic.
func (n *Node) Close() error {
	if n.wal == nil {
		return nil
	}
	return n.wal.Close(n.dumpRecords)
}

// WALStats returns the disk backend's operation counters (zero Stats on
// the memory backend) — how tests assert the one-fsync-per-batch group
// commit and how kvd reports recovery progress.
func (n *Node) WALStats() wal.Stats {
	if n.wal == nil {
		return wal.Stats{}
	}
	return n.wal.Stats()
}

// CleanStart reports whether the disk backend found a clean-shutdown
// marker (false on the memory backend).
func (n *Node) CleanStart() bool {
	return n.wal != nil && n.wal.CleanStart()
}
