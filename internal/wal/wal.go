package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hquorum/internal/optrace"
)

// markerName is the clean-shutdown marker. Close writes it after
// snapshotting every shard and deleting every sealed segment; Open
// consumes it and lets Replay skip the stream, trusting the snapshots
// to hold the complete state. A crash (no marker) always takes the full
// snapshots-plus-stream replay path.
const markerName = "CLEAN"

// maxSealed bounds the sealed segments a log keeps before it forces
// compaction: once more pile up, every shard whose snapshot does not
// cover the oldest one is marked snapshot-due, so a shard that stopped
// receiving writes cannot pin the stream's history forever.
const maxSealed = 4

// ErrAbandoned reports an operation on a log whose files were dropped
// by Abandon — the simulated-crash state.
var ErrAbandoned = errors.New("wal: log abandoned")

// testHook, when a test sets it, runs at named points inside
// compaction and segment rolling so the test can Abandon the log there.
var testHook func(point string)

// Options configures a Log.
type Options struct {
	// Shards is the number of shards whose snapshots the log keeps; it
	// must match the replica store's shard count so Record.Shard means
	// the same shard across restarts. Minimum 1.
	Shards int
	// SegmentBytes seals the active segment once it reaches this size
	// (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery marks a shard snapshot-due after this many appended
	// records (default 4096; negative disables every snapshot signal,
	// including the cold-shard one). The log only raises the flag — the
	// owner of the state dumps the shard and calls SnapshotShard,
	// because only it can read the map and the log under one lock.
	SnapshotEvery int
	// NoSync skips fsync on flush: records are written to the file but
	// not forced to disk. The deterministic simulation runs NoSync —
	// its crash model kills a process, not the machine, so what write()
	// made visible is exactly what survives — while real deployments
	// keep fsync on.
	NoSync bool
}

// counters are the Log's internal atomics; Stats() snapshots them.
type counters struct {
	syncRounds atomic.Uint64
	writes     atomic.Uint64
	fileSyncs  atomic.Uint64
	snapshots  atomic.Uint64
	bytes      atomic.Uint64
	replayed   atomic.Uint64
}

// Stats is a point-in-time snapshot of a Log's operation counters.
type Stats struct {
	Appends    uint64 // records appended
	SyncRounds uint64 // group-commit flush rounds executed
	Writes     uint64 // write calls on the segment stream
	FileSyncs  uint64 // fsync calls on segment and snapshot files
	Snapshots  uint64 // shard snapshots written
	Bytes      uint64 // record bytes written to segments
	Replayed   uint64 // records emitted by Replay
}

// shardState is the log's bookkeeping for one shard: how far its
// snapshot reaches into the stream and when it is due for another.
type shardState struct {
	// tag is the active segment number when the shard's snapshot was
	// taken: the snapshot covers every record of the shard in segments
	// numbered below tag. Zero means no snapshot.
	tag       uint64
	sinceSnap int  // records appended since the last snapshot
	due       bool // counted in Log.due while set
}

// Log is a durable write-ahead log with group commit: one append-only
// segment stream per replica plus one snapshot per shard.
//
// Concurrency contract: Append may be called from many goroutines (the
// transport's fast-path delivery); Sync is the group-commit barrier —
// when it returns nil, every record appended before the call is
// durable. Concurrent Sync callers coalesce: one becomes the leader and
// writes the whole buffer with one write and one fsync, however many
// shards the round touched; the rest wait for the round that covers
// them. That is how an eight-op quorum batch costs one fsync, not
// eight.
//
// Lock order: the owner's map-shard lock, then mu. The log never calls
// back out while holding mu.
type Log struct {
	dir   string
	opts  Options
	clean bool         // clean-shutdown marker was present at Open
	due   atomic.Int64 // number of shards with due set

	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte // encoded records awaiting the next round
	spare     []byte // the previous round's buffer, reused
	scratch   []byte // body-encoding scratch
	appendSeq uint64 // records appended
	syncedSeq uint64 // records covered by a completed flush round
	syncing   bool   // a leader is mid-round
	shards    []shardState
	lease     uint64   // highest clock lease appended or replayed
	sealed    []uint64 // sealed segment numbers on disk, ascending
	segNum    uint64   // active segment number
	err       error    // sticky: the first I/O failure poisons the log

	// Written only by the round leader (and Open/Close, which run
	// alone); segNum and seg are updated under mu so others may read
	// them there.
	seg     *os.File
	segSize int64

	abandoned atomic.Bool
	stats     counters
}

// Open opens (or initializes) a log rooted at dir: it loads each
// shard's newest snapshot tag, truncates a torn tail off the newest
// segment and positions it for appends. A directory in the retired
// per-shard segment layout is refused. Call Replay before the first
// Append to rebuild state.
func Open(dir string, opts Options) (*Log, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 4096
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, shards: make([]shardState, opts.Shards)}
	l.cond = sync.NewCond(&l.mu)
	marker := filepath.Join(dir, markerName)
	if _, err := os.Stat(marker); err == nil {
		l.clean = true
	}
	segs, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if err := l.openActive(segs); err != nil {
		l.closeFiles()
		return nil, err
	}
	if err := l.compact(); err != nil {
		l.closeFiles()
		return nil, err
	}
	// Consume the marker only once the directory opened: a crash
	// between here and the caller's Replay re-runs full recovery,
	// which is idempotent.
	if l.clean {
		if err := os.Remove(marker); err != nil {
			l.closeFiles()
			return nil, err
		}
	}
	return l, nil
}

// Dir returns the log's root directory.
func (l *Log) Dir() string { return l.dir }

// CleanStart reports whether the clean-shutdown marker was present at
// Open — i.e. Replay can trust snapshots alone.
func (l *Log) CleanStart() bool { return l.clean }

// Replay streams every recovered record to fn: each shard's snapshot
// in shard order (records carry that shard's index), then the stream's
// segments in append order (skipped after a clean shutdown). The stream
// does not encode placement, so its records carry Shard -1; callers
// route them by key. Snapshot and stream overlap, so fn must merge
// monotonically. Replay before appending.
func (l *Log) Replay(fn func(Record)) error {
	var lease uint64
	emit := func(rec Record) {
		l.stats.replayed.Add(1)
		if rec.Kind == KindClock {
			lease = max(lease, rec.Counter)
		}
		fn(rec)
	}
	l.mu.Lock()
	tags := make([]uint64, len(l.shards))
	for i, st := range l.shards {
		tags[i] = st.tag
	}
	segs := append(append([]uint64(nil), l.sealed...), l.segNum)
	l.mu.Unlock()
	for i, tag := range tags {
		if tag == 0 {
			continue
		}
		data, err := os.ReadFile(snapPath(l.dir, i, tag))
		if err != nil {
			return fmt.Errorf("wal: replay shard %d: %w", i, err)
		}
		scanBuf(data, i, emit)
	}
	// Each file's scan stops at its first torn or corrupt record; for
	// sealed segments that also guards against damage at rest.
	if l.clean {
		segs = nil
	}
	for _, n := range segs {
		data, err := os.ReadFile(segPath(l.dir, n))
		if err != nil {
			return fmt.Errorf("wal: replay segment %d: %w", n, err)
		}
		scanBuf(data, -1, emit)
	}
	l.mu.Lock()
	l.lease = max(l.lease, lease)
	l.mu.Unlock()
	return nil
}

// Append stages one record for the next commit round. It is durable
// only after a Sync that started at or after this call returns nil.
// rec.Shard is the shard whose snapshot will cover the record.
func (l *Log) Append(rec Record) error {
	if l.abandoned.Load() {
		return ErrAbandoned
	}
	if rec.Shard < 0 || rec.Shard >= len(l.shards) {
		return fmt.Errorf("wal: shard %d out of range [0,%d)", rec.Shard, len(l.shards))
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.scratch = appendBody(l.scratch[:0], rec)
	l.buf = appendFrame(l.buf, l.scratch)
	l.appendSeq++
	if rec.Kind == KindClock {
		l.lease = max(l.lease, rec.Counter)
	}
	st := &l.shards[rec.Shard]
	st.sinceSnap++
	if l.opts.SnapshotEvery > 0 && st.sinceSnap >= l.opts.SnapshotEvery {
		l.markDueLocked(st)
	}
	l.mu.Unlock()
	return nil
}

// markDueLocked raises a shard's snapshot-due flag. Caller holds mu.
func (l *Log) markDueLocked(st *shardState) {
	if !st.due {
		st.due = true
		l.due.Add(1)
	}
}

// Sync is the group-commit barrier: it returns nil once every record
// appended before the call is written and (unless NoSync) fsynced.
// Concurrent callers coalesce into rounds — one leader writes the
// buffer, followers wait for the covering round.
func (l *Log) Sync() error {
	return l.SyncTraced(nil)
}

// SyncTraced is Sync with an optional trace record: the time spent
// waiting for a covering group-commit round (or electing this caller
// leader) lands in wal_wait, and the leader's own write+fsync pass in
// fsync. Followers record zero fsync time — they only waited — so the
// two stages together separate "the disk was busy" from "the disk was
// slow".
func (l *Log) SyncTraced(rec *optrace.Rec) error {
	rec.Begin(optrace.StageWALWait)
	l.mu.Lock()
	target := l.appendSeq
	for l.syncedSeq < target && l.syncing {
		l.cond.Wait()
	}
	if l.syncedSeq >= target {
		l.mu.Unlock()
		rec.End(optrace.StageWALWait)
		return nil
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		rec.End(optrace.StageWALWait)
		return err
	}
	l.syncing = true
	target = l.appendSeq // absorb records appended while waiting
	buf := l.buf
	l.buf = l.spare[:0]
	l.mu.Unlock()
	rec.End(optrace.StageWALWait)

	rec.Begin(optrace.StageFsync)
	err := l.flush(buf)
	rec.End(optrace.StageFsync)

	l.mu.Lock()
	l.spare = buf
	if err != nil && l.err == nil {
		l.err = err
	}
	l.syncing = false
	if err == nil && target > l.syncedSeq {
		l.syncedSeq = target
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// Commit appends recs and blocks until they are durable — the
// convenience form protocol code uses per quorum round.
func (l *Log) Commit(recs ...Record) error {
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			return err
		}
	}
	return l.Sync()
}

// flush is the round leader's pass: one write of buf to the active
// segment and, unless NoSync, one fsync — however many records and
// shards the round batched. A full segment is then sealed.
func (l *Log) flush(buf []byte) error {
	if l.abandoned.Load() {
		return ErrAbandoned
	}
	l.stats.syncRounds.Add(1)
	if len(buf) > 0 {
		if _, err := l.seg.Write(buf); err != nil {
			return err
		}
		l.stats.writes.Add(1)
		l.stats.bytes.Add(uint64(len(buf)))
		l.segSize += int64(len(buf))
		if !l.opts.NoSync {
			if err := l.seg.Sync(); err != nil {
				return err
			}
			l.stats.fileSyncs.Add(1)
		}
	}
	if l.segSize >= l.opts.SegmentBytes {
		return l.roll()
	}
	return nil
}

// roll seals the active segment and opens the next one. Only the round
// leader (or Close, running alone) calls it. If more than maxSealed
// segments are then sealed, every shard whose snapshot does not cover
// the oldest is marked due.
func (l *Log) roll() error {
	next := l.segNum + 1
	f, err := createFile(segPath(l.dir, next))
	if err != nil {
		return err
	}
	if err := l.syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	if testHook != nil {
		testHook("segment-rolled")
	}
	l.mu.Lock()
	if l.abandoned.Load() {
		// Abandon closed (or is about to close) the old segment.
		l.mu.Unlock()
		f.Close()
		return ErrAbandoned
	}
	old := l.seg
	l.sealed = append(l.sealed, l.segNum)
	l.seg, l.segNum, l.segSize = f, next, 0
	if len(l.sealed) > maxSealed && l.opts.SnapshotEvery > 0 {
		for i := range l.shards {
			if l.shards[i].tag <= l.sealed[0] {
				l.markDueLocked(&l.shards[i])
			}
		}
	}
	l.mu.Unlock()
	return old.Close()
}

// SnapshotDue returns the shards that crossed Options.SnapshotEvery
// appends since their last snapshot, or whose snapshot is too old to
// let the stream shed its oldest sealed segment. The flag stays up
// until SnapshotShard runs, so callers may coalesce checks; the common
// case (nothing due) is one atomic load.
func (l *Log) SnapshotDue() []int {
	if l.due.Load() == 0 {
		return nil
	}
	var due []int
	l.mu.Lock()
	for i := range l.shards {
		if l.shards[i].due {
			due = append(due, i)
		}
	}
	l.mu.Unlock()
	return due
}

// SnapshotShard writes recs, the shard's full current state, as its
// new snapshot, tagged with the active segment number, then deletes
// every sealed segment that all shards' snapshots now cover. The caller
// must guarantee recs covers every record it has appended for the shard
// — rkv does so by dumping the shard map under the same lock its
// appends take, so map contents are always a superset of the log. The
// log adds its highest clock lease to every snapshot, so deleting the
// segment that held the lease record never loses it. Calls for one
// shard must not overlap; rkv serializes them under the map-shard lock.
func (l *Log) SnapshotShard(shard int, recs []Record) error {
	if l.abandoned.Load() {
		return ErrAbandoned
	}
	if shard < 0 || shard >= len(l.shards) {
		return fmt.Errorf("wal: shard %d out of range [0,%d)", shard, len(l.shards))
	}
	l.mu.Lock()
	err, tag, prev, lease := l.err, l.segNum, l.shards[shard].tag, l.lease
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := l.writeSnapshot(shard, tag, prev, recs, lease); err != nil {
		return l.fail(err)
	}
	if testHook != nil {
		testHook("snapshot-renamed")
	}
	// An abandoned log no longer owns the directory: a reopened one
	// may, so compaction must not touch it.
	if l.abandoned.Load() {
		return ErrAbandoned
	}
	l.mu.Lock()
	st := &l.shards[shard]
	st.tag, st.sinceSnap = tag, 0
	if st.due {
		st.due = false
		l.due.Add(-1)
	}
	l.mu.Unlock()
	l.stats.snapshots.Add(1)
	return l.compact()
}

// compact deletes every sealed segment that all shards' snapshots
// cover. Snapshots are durable before their tags are published, so a
// crash at any point leaves either the segment or a snapshot covering
// it.
func (l *Log) compact() error {
	l.mu.Lock()
	low := l.shards[0].tag
	for _, st := range l.shards[1:] {
		low = min(low, st.tag)
	}
	k := 0
	for k < len(l.sealed) && l.sealed[k] < low {
		k++
	}
	dead := append([]uint64(nil), l.sealed[:k]...)
	l.sealed = l.sealed[k:]
	l.mu.Unlock()
	if len(dead) == 0 {
		return nil
	}
	for _, n := range dead {
		if err := os.Remove(segPath(l.dir, n)); err != nil {
			return l.fail(err)
		}
	}
	if err := l.syncDir(l.dir); err != nil {
		return l.fail(err)
	}
	return nil
}

// fail records err as the log's sticky error and returns it.
func (l *Log) fail(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	return err
}

// Close performs a clean shutdown: flush and fsync everything, then, if
// dump is non-nil, seal the active segment, snapshot each shard from
// dump's state, delete every sealed segment and write the
// clean-shutdown marker so the next Open can skip the stream. Close
// with a nil dump just flushes and releases files (no marker — next
// start replays normally). Call it only after appends stopped.
func (l *Log) Close(dump func(shard int) []Record) error {
	if l.abandoned.Load() {
		return ErrAbandoned
	}
	err := l.Sync()
	if err == nil && dump != nil {
		if l.segSize > 0 {
			err = l.roll()
		}
		for i := range l.shards {
			if err != nil {
				break
			}
			err = l.SnapshotShard(i, dump(i))
		}
		if err == nil {
			err = l.writeMarker()
		}
	}
	l.closeFiles()
	return err
}

// writeMarker durably records a clean shutdown.
func (l *Log) writeMarker() error {
	f, err := createFile(filepath.Join(l.dir, markerName))
	if err != nil {
		return err
	}
	if err := l.writeSync(f, []byte("clean\n")); err != nil {
		return err
	}
	return l.syncDir(l.dir)
}

// Abandon drops the log without flushing: buffered records are lost,
// files are closed as-is, and every subsequent operation fails with
// ErrAbandoned. It is the simulated-crash path — what a SIGKILL does to
// user-space buffers — and the harness reopens the directory with Open
// to model the restart.
func (l *Log) Abandon() {
	l.abandoned.Store(true)
	l.closeFiles()
	// Wake any Sync followers parked on the condition; their leader's
	// flush will fail with ErrAbandoned and re-check terminates.
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// closeFiles releases the active segment. A leader mid-write on it
// fails with an error, which is what a crash would do too.
func (l *Log) closeFiles() {
	l.mu.Lock()
	if l.seg != nil {
		l.seg.Close()
	}
	l.mu.Unlock()
}

// Stats snapshots the log's operation counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	appends := l.appendSeq
	l.mu.Unlock()
	return Stats{
		Appends:    appends,
		SyncRounds: l.stats.syncRounds.Load(),
		Writes:     l.stats.writes.Load(),
		FileSyncs:  l.stats.fileSyncs.Load(),
		Snapshots:  l.stats.snapshots.Load(),
		Bytes:      l.stats.bytes.Load(),
		Replayed:   l.stats.replayed.Load(),
	}
}
