package wal

import (
	"os"
	"reflect"
	"testing"
)

// TestTornWriteEveryOffset cuts the stream's final record at
// every byte offset — modeling a write torn mid-record by a crash — and
// asserts recovery stops cleanly at the last fully-valid record: no
// error, no garbage record, and the torn tail physically truncated so
// later appends don't strand bytes behind it.
func TestTornWriteEveryOffset(t *testing.T) {
	base := t.TempDir()
	l, err := Open(base, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	keep := []Record{
		put(0, "first", 1, 3, "value-one"),
		put(0, "second", 2, 3, "value-two"),
	}
	last := put(0, "torn", 3, 3, "value-three")
	for _, r := range append(append([]Record{}, keep...), last) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Abandon()

	seg := segPath(base, 1)
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := len(AppendRecord(nil, last))
	intact := len(whole) - lastLen

	for cut := 0; cut < lastLen; cut++ {
		dir := t.TempDir()
		torn := whole[:intact+cut]
		if err := os.WriteFile(segPath(dir, 1), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		lr, err := Open(dir, Options{Shards: 1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		got := collect(t, lr)
		if !reflect.DeepEqual(got, streamed(keep...)) {
			t.Fatalf("cut %d: replay = %+v, want the two intact records", cut, got)
		}
		// The torn bytes must be gone from disk: recovery truncates to
		// the last valid record so new appends extend valid history.
		if err := lr.Commit(put(0, "after", 4, 3, "post-crash")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		lr.Abandon()
		lr2, err := Open(dir, Options{Shards: 1})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		got2 := collect(t, lr2)
		want2 := streamed(append(append([]Record{}, keep...), put(0, "after", 4, 3, "post-crash"))...)
		if !reflect.DeepEqual(got2, want2) {
			t.Fatalf("cut %d: replay after post-crash append = %+v, want %+v", cut, got2, want2)
		}
		lr2.Abandon()
	}
}
