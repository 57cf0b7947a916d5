package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// crashAt arranges for l to be abandoned the first time the log
// reaches point, and restores the hook when the test ends.
func crashAt(t *testing.T, l *Log, point string) {
	t.Helper()
	fired := false
	testHook = func(p string) {
		if p == point && !fired {
			fired = true
			l.Abandon()
		}
	}
	t.Cleanup(func() {
		testHook = nil
		if !fired {
			t.Errorf("crash point %q never reached", point)
		}
	})
}

// latest folds replayed records into the state the replica would hold:
// the highest counter per key, plus the highest clock lease.
func latest(recs []Record) (map[string]uint64, uint64) {
	state := make(map[string]uint64)
	var lease uint64
	for _, r := range recs {
		switch r.Kind {
		case KindPut:
			state[r.Key] = max(state[r.Key], r.Counter)
		case KindClock:
			lease = max(lease, r.Counter)
		}
	}
	return state, lease
}

// TestCrashBetweenSnapshotAndDeletion: a crash after a snapshot's
// rename but before the covered segments are deleted leaves overlapping
// history, which replay merges back to every synced record.
func TestCrashBetweenSnapshotAndDeletion(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Shards: 2, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Keys k0, k2 live in shard 0 and k1, k3 in shard 1.
	want := map[string]uint64{}
	for i := 1; i <= 6; i++ {
		key := fmt.Sprintf("k%d", i%4)
		if err := l.Commit(put(i%2, key, uint64(i), 1, "v")); err != nil {
			t.Fatal(err)
		}
		want[key] = uint64(i)
	}
	if err := l.SnapshotShard(1, []Record{put(1, "k1", 5, 1, "v"), put(1, "k3", 3, 1, "v")}); err != nil {
		t.Fatal(err)
	}
	// The last shard's snapshot would let every sealed segment go;
	// crash right after its rename.
	crashAt(t, l, "snapshot-renamed")
	err = l.SnapshotShard(0, []Record{put(0, "k2", 6, 1, "v"), put(0, "k0", 4, 1, "v")})
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("snapshot across the crash = %v, want ErrAbandoned", err)
	}
	if n := segFiles(t, dir); n != 7 {
		t.Fatalf("%d segment files after the crash, want all 7 — deletion must not run on an abandoned log", n)
	}
	l2, err := Open(dir, Options{Shards: 2, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := latest(collect(t, l2)); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after crash = %v, want %v", got, want)
	}
	// Both snapshots are durable, so the reopened log finishes the
	// interrupted deletion.
	if n := segFiles(t, dir); n != 1 {
		t.Fatalf("%d segment files after reopen, want only the active one", n)
	}
	l2.Abandon()
}

// TestCrashAcrossSegmentRoll: a crash right after a roll created the
// next segment keeps every synced record, and appends resume in the
// fresh segment.
func TestCrashAcrossSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, SegmentBytes: 40}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var synced []Record
	for i := 1; segFiles(t, dir) < 2; i++ {
		r := put(i%4, fmt.Sprintf("key-%d", i), uint64(i), 2, "payload")
		if err := l.Commit(r); err != nil {
			t.Fatal(err)
		}
		synced = append(synced, r)
	}
	// The next round fills the active segment and rolls; crash there.
	crashAt(t, l, "segment-rolled")
	for i := 100; ; i++ {
		r := put(i%4, fmt.Sprintf("key-%d", i), uint64(i), 2, "payload")
		err := l.Commit(r)
		if err != nil && !errors.Is(err, ErrAbandoned) {
			t.Fatal(err)
		}
		if l.abandoned.Load() {
			// The round's write+fsync completed before the roll.
			synced = append(synced, r)
			break
		}
		synced = append(synced, r)
	}
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); !reflect.DeepEqual(got, streamed(synced...)) {
		t.Fatalf("replay after crash mid-roll:\n got %+v\nwant %+v", got, streamed(synced...))
	}
	after := put(1, "after", 999, 2, "post-crash")
	if err := l2.Commit(after); err != nil {
		t.Fatal(err)
	}
	l2.Abandon()
	l3, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Abandon()
	if got := collect(t, l3); !reflect.DeepEqual(got, streamed(append(synced, after)...)) {
		t.Fatalf("replay after post-crash append misses records: got %d, want %d", len(got), len(synced)+1)
	}
}

// TestColdShardsBoundSealedSegments: one hot shard and fifteen idle
// ones. The idle shards never cross SnapshotEvery, but once sealed
// segments pile up they are marked due, so the stream stays bounded.
func TestColdShardsBoundSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Shards: 16, SegmentBytes: 1, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	state := make(map[int][]Record)
	peak := 0
	for i := 1; i <= 400; i++ {
		r := put(0, fmt.Sprintf("hot-%d", i%5), uint64(i), 1, "v")
		if err := l.Commit(r); err != nil {
			t.Fatal(err)
		}
		state[0] = append(state[0], r)
		for _, shard := range l.SnapshotDue() {
			if err := l.SnapshotShard(shard, state[shard]); err != nil {
				t.Fatal(err)
			}
		}
		peak = max(peak, segFiles(t, dir))
	}
	if peak > maxSealed+2 {
		t.Fatalf("segment files peaked at %d over 400 rounds, want at most %d", peak, maxSealed+2)
	}
	if st := l.Stats(); st.Snapshots < 16 {
		t.Fatalf("Snapshots = %d: the idle shards were never snapshotted", st.Snapshots)
	}
}

// TestSnapshotKeepsClockLease: the highest clock lease survives every
// path that deletes the segment holding its record — a snapshot of a
// different shard, and a clean shutdown.
func TestSnapshotKeepsClockLease(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, SegmentBytes: 1}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(Record{Shard: 0, Kind: KindClock, Counter: 4097}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(put(1, "k", 1, 1, "v")); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		if err := l.SnapshotShard(shard, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := segFiles(t, dir); n != 1 {
		t.Fatalf("%d segment files, want only the active one", n)
	}
	l.Abandon()
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, lease := latest(collect(t, l2)); lease != 4097 {
		t.Fatalf("lease after snapshot + crash = %d, want 4097", lease)
	}
	if err := l2.Close(func(int) []Record { return nil }); err != nil {
		t.Fatal(err)
	}
	l3, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Abandon()
	if _, lease := latest(collect(t, l3)); !l3.CleanStart() || lease != 4097 {
		t.Fatalf("lease after clean shutdown = %d (clean %v), want 4097", lease, l3.CleanStart())
	}
}

// TestOpenRefusesPerShardLayout: a directory written by the retired
// per-shard segment layout is refused with an error naming it, not
// silently read as empty.
func TestOpenRefusesPerShardLayout(t *testing.T) {
	for _, name := range []string{"seg-00000001.wal", "snap.wal"} {
		dir := t.TempDir()
		sdir := filepath.Join(dir, "s00")
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, name), AppendRecord(nil, put(0, "k", 1, 1, "v")), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Shards: 1})
		if err == nil {
			l.Abandon()
			t.Fatalf("%s: Open accepted the per-shard layout", name)
		}
		if !strings.Contains(err.Error(), sdir) {
			t.Fatalf("%s: error %q does not name %s", name, err, sdir)
		}
	}
}
