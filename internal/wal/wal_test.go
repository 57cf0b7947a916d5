package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// put builds a KindPut record for shard s.
func put(s int, key string, counter, writer uint64, val string) Record {
	return Record{Shard: s, Kind: KindPut, Key: key, Counter: counter, Writer: writer, Value: val}
}

// streamed returns recs as Replay reports them from the segment
// stream: placement is not encoded, so Shard is -1.
func streamed(recs ...Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		r.Shard = -1
		out[i] = r
	}
	return out
}

// segFiles counts the segment files in the log's root directory.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if _, ok := fileNumber(e.Name(), segPrefix); ok {
			n++
		}
	}
	return n
}

// collect replays every record into a slice.
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(func(r Record) { recs = append(recs, r) }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		put(0, "a", 1, 7, "alpha"),
		put(1, "b", 2, 7, "beta"),
		put(3, "c", 3, 8, ""),
		{Shard: 2, Kind: KindClock, Counter: 4096},
		put(0, "a", 5, 7, "alpha2"),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Abandon()

	l2, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Abandon()
	// No snapshots yet: replay is the stream, in append order across
	// shards.
	if got := collect(t, l2); !reflect.DeepEqual(got, streamed(want...)) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, streamed(want...))
	}
	if st := l2.Stats(); st.Replayed != uint64(len(want)) {
		t.Fatalf("Replayed = %d, want %d", st.Replayed, len(want))
	}
}

// TestGroupCommitOneFsyncPerBatch is the acceptance check for group
// commit: a full batch of 8 records spread over the default 16 shards
// costs exactly one write and one fsync on the stream, not one per
// dirty shard.
func TestGroupCommitOneFsyncPerBatch(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abandon()
	dirty := make(map[int]bool)
	for i := 0; i < 8; i++ {
		shard := (i * 5) % 16
		dirty[shard] = true
		if err := l.Append(put(shard, fmt.Sprintf("k%d", i), uint64(i+1), 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if len(dirty) < 4 {
		t.Fatalf("batch touches %d shards, want at least 4", len(dirty))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 8 {
		t.Fatalf("Appends = %d, want 8", st.Appends)
	}
	if st.SyncRounds != 1 {
		t.Fatalf("SyncRounds = %d, want 1", st.SyncRounds)
	}
	if st.Writes != 1 || st.FileSyncs != 1 {
		t.Fatalf("Writes = %d, FileSyncs = %d, want 1/1 — group commit must fold the batch into one write and one fsync", st.Writes, st.FileSyncs)
	}
	// A Sync with nothing new appended is free: no extra round.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncRounds != 1 || st.FileSyncs != 1 {
		t.Fatalf("idle Sync ran a round: %+v", st)
	}
}

// TestConcurrentCommitsCoalesce drives Commit from many goroutines; all
// records must be durable afterwards and rounds must have coalesced (at
// most one round per committer, typically far fewer).
func TestConcurrentCommitsCoalesce(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Commit(put(i%2, "k", uint64(i+1), uint64(i), "v")); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("Appends = %d, want %d", st.Appends, n)
	}
	if st.SyncRounds > n {
		t.Fatalf("SyncRounds = %d > %d commits: no coalescing at all", st.SyncRounds, n)
	}
	l.Abandon()
	l2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Abandon()
	if got := len(collect(t, l2)); got != n {
		t.Fatalf("replayed %d records, want %d", got, n)
	}
}

// TestSnapshotTruncatesSegments: a sealed segment is deleted once every
// shard's snapshot covers it, not before; replay is the snapshots, then
// what is left of the stream.
func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 seals the segment after every commit round.
	l, err := Open(dir, Options{Shards: 2, SnapshotEvery: 4, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Commit(put(0, "k", uint64(i+1), 1, "v")); err != nil {
			t.Fatal(err)
		}
	}
	due := l.SnapshotDue()
	if len(due) != 1 || due[0] != 0 {
		t.Fatalf("SnapshotDue = %v, want [0]", due)
	}
	// Snapshot with the compacted state: one live entry.
	if err := l.SnapshotShard(0, []Record{put(0, "k", 4, 1, "v")}); err != nil {
		t.Fatal(err)
	}
	if due := l.SnapshotDue(); due != nil {
		t.Fatalf("SnapshotDue after snapshot = %v, want nil", due)
	}
	// Shard 1 has no snapshot yet, so the four sealed segments stay.
	if n := segFiles(t, dir); n != 5 {
		t.Fatalf("%d segment files after shard 0's snapshot, want 4 sealed + 1 active", n)
	}
	if err := l.SnapshotShard(1, nil); err != nil {
		t.Fatal(err)
	}
	if n := segFiles(t, dir); n != 1 {
		t.Fatalf("%d segment files after every shard snapshotted, want only the active one", n)
	}
	for shard := 0; shard < 2; shard++ {
		if _, err := os.Stat(snapPath(dir, shard, 5)); err != nil {
			t.Fatalf("shard %d snapshot not tagged with the active segment: %v", shard, err)
		}
	}
	// Appends continue in the stream and replay sees snapshots + tail.
	if err := l.Commit(put(0, "k2", 5, 1, "w")); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	l2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Abandon()
	got := collect(t, l2)
	want := append([]Record{put(0, "k", 4, 1, "v")}, streamed(put(0, "k2", 5, 1, "w"))...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after snapshot:\n got %+v\nwant %+v", got, want)
	}
	if st := l2.Stats(); st.Replayed != 2 {
		t.Fatalf("Replayed = %d, want 2", st.Replayed)
	}
}

func TestCleanShutdownMarker(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	state := map[int][]Record{
		0: {put(0, "a", 3, 1, "x")},
		1: {put(1, "b", 4, 2, "y")},
	}
	for _, recs := range state {
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(func(shard int) []Record { return state[shard] }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "CLEAN")); err != nil {
		t.Fatalf("clean-shutdown marker missing: %v", err)
	}

	l2, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !l2.CleanStart() {
		t.Fatal("CleanStart = false after clean Close")
	}
	got := collect(t, l2)
	want := []Record{state[0][0], state[1][0]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after clean shutdown:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "CLEAN")); !os.IsNotExist(err) {
		t.Fatal("marker not consumed by Open")
	}
	l2.Abandon()

	// Third open, after an unclean stop: full replay path, same state.
	l3, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Abandon()
	if l3.CleanStart() {
		t.Fatal("CleanStart = true without a marker")
	}
	if got := collect(t, l3); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after unclean stop:\n got %+v\nwant %+v", got, want)
	}
}

// TestAbandonLosesOnlyUnsynced: records synced before the crash
// survive; records merely appended do not. This is the simulated-crash
// contract the nemesis harness relies on.
func TestAbandonLosesOnlyUnsynced(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Shards: 1, NoSync: noSync})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(put(0, "durable", 1, 1, "yes")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(put(0, "lost", 2, 1, "no")); err != nil {
			t.Fatal(err)
		}
		l.Abandon()
		if err := l.Append(put(0, "dead", 3, 1, "")); err != ErrAbandoned {
			t.Fatalf("Append after Abandon = %v, want ErrAbandoned", err)
		}
		l2, err := Open(dir, Options{Shards: 1, NoSync: noSync})
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, l2)
		want := streamed(put(0, "durable", 1, 1, "yes"))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("noSync=%v: replay after crash:\n got %+v\nwant %+v", noSync, got, want)
		}
		l2.Abandon()
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Shards: 1, SegmentBytes: 64, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Commit(put(0, "key", uint64(i+1), 1, "some-payload-value")); err != nil {
			t.Fatal(err)
		}
	}
	if n := segFiles(t, dir); n < 3 {
		t.Fatalf("expected multiple rolled segments, got %d", n)
	}
	l.Abandon()
	l2, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Abandon()
	got := collect(t, l2)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	if got[n-1].Counter != n {
		t.Fatalf("last record counter = %d, want %d", got[n-1].Counter, n)
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	valid := AppendRecord(nil, put(0, "key", 9, 2, "value"))
	if rec, n, err := DecodeRecord(valid); err != nil || n != len(valid) || rec.Key != "key" {
		t.Fatalf("valid record: rec=%+v n=%d err=%v", rec, n, err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"half prefix":    {0xff},
		"huge length":    append(bytes.Repeat([]byte{0xff}, 9), 0x01),
		"crc flipped":    flipByte(valid, 2),
		"body flipped":   flipByte(valid, len(valid)-1),
		"unknown kind":   AppendRecord(nil, Record{Kind: 99, Counter: 1}),
		"trailing junk":  appendFrame(nil, append(appendBody(nil, put(0, "k", 1, 1, "v")), 0xAA)),
		"short frame":    {0x04, 0, 0, 0, 0}, // length below the 5-byte floor
		"length overrun": valid[:len(valid)-2],
	}
	for name, data := range cases {
		if _, _, err := DecodeRecord(data); err != ErrCorrupt {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}
