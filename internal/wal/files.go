package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// On-disk layout under the log directory:
//
//	seg-00000007.wal       the segment stream, numbered in append order
//	s03/snap-00000007.wal  shard 3's snapshot, tagged with the active
//	                       segment number when it was taken
//	CLEAN                  the clean-shutdown marker
const (
	segPrefix  = "seg-"
	snapPrefix = "snap-"
	walSuffix  = ".wal"
	snapTmp    = "snap.tmp"
	// oldSnapName is the retired per-shard layout's snapshot file; with
	// seg-*.wal inside a shard directory it marks a directory Open
	// refuses.
	oldSnapName = "snap.wal"
)

func shardDir(dir string, shard int) string { return filepath.Join(dir, fmt.Sprintf("s%02d", shard)) }

func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, n, walSuffix))
}

func snapPath(dir string, shard int, tag uint64) string {
	return filepath.Join(shardDir(dir, shard), fmt.Sprintf("%s%08d%s", snapPrefix, tag, walSuffix))
}

// fileNumber parses prefix<number>.wal; ok is false for anything else.
func fileNumber(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(walSuffix)], 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

func createFile(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// scanDir lists the stream's segment numbers (ascending) and loads each
// shard's newest snapshot tag, removing superseded snapshots. It
// refuses a directory in the retired per-shard layout.
func (l *Log) scanDir() ([]uint64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if n, ok := fileNumber(e.Name(), segPrefix); ok && !e.IsDir() {
			segs = append(segs, n)
			continue
		}
		shard, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "s"))
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "s") || err != nil {
			continue
		}
		if shard < 0 || shard >= len(l.shards) {
			return nil, fmt.Errorf("wal: %s: shard %d beyond the configured %d shards", l.dir, shard, len(l.shards))
		}
		if err := l.scanShardDir(shard); err != nil {
			return nil, err
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// scanShardDir loads one shard directory's newest snapshot tag.
func (l *Log) scanShardDir(shard int) error {
	sdir := shardDir(l.dir, shard)
	ents, err := os.ReadDir(sdir)
	if err != nil {
		return err
	}
	var tags []uint64
	for _, e := range ents {
		if _, ok := fileNumber(e.Name(), segPrefix); ok || e.Name() == oldSnapName {
			return fmt.Errorf("wal: %s holds a per-shard segment log, a layout this version does not read; move it aside and let the replica recover from its peers", sdir)
		}
		if tag, ok := fileNumber(e.Name(), snapPrefix); ok {
			tags = append(tags, tag)
		}
	}
	if len(tags) == 0 {
		return nil
	}
	slices.Sort(tags)
	newest := tags[len(tags)-1]
	// A crash between a snapshot's rename and the removal of its
	// predecessor leaves both; the newer one covers the older.
	for _, tag := range tags[:len(tags)-1] {
		if err := os.Remove(snapPath(l.dir, shard, tag)); err != nil {
			return err
		}
	}
	l.shards[shard].tag = newest
	return nil
}

// openActive positions the newest segment for appends, truncating a
// torn tail to the last valid record, and records the rest as sealed.
// A fresh directory — or one whose newest snapshot tag is ahead of
// every segment — starts a new segment numbered at or above every tag,
// so a tag never claims to cover records appended after it.
func (l *Log) openActive(segs []uint64) error {
	var maxTag uint64
	for _, st := range l.shards {
		maxTag = max(maxTag, st.tag)
	}
	if len(segs) == 0 || segs[len(segs)-1] < maxTag {
		n := max(maxTag, 1)
		f, err := createFile(segPath(l.dir, n))
		if err != nil {
			return err
		}
		l.seg, l.segNum, l.sealed = f, n, segs
		return l.syncDir(l.dir)
	}
	last := segs[len(segs)-1]
	path := segPath(l.dir, last)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	valid := scanBuf(data, -1, nil)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return err
	}
	l.seg, l.segNum, l.segSize, l.sealed = f, last, int64(valid), segs[:len(segs)-1]
	return nil
}

// writeSnapshot durably installs recs plus the clock lease as shard's
// snapshot tagged tag: write to a temp file, fsync, rename, fsync the
// directory, and only then drop the predecessor tagged prev. A crash at
// any point leaves the previous snapshot, the new one, or both.
func (l *Log) writeSnapshot(shard int, tag, prev uint64, recs []Record, lease uint64) error {
	sdir := shardDir(l.dir, shard)
	if prev == 0 {
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		if err := l.syncDir(l.dir); err != nil {
			return err
		}
	}
	var buf, body []byte
	for _, rec := range recs {
		body = appendBody(body[:0], rec)
		buf = appendFrame(buf, body)
	}
	if lease > 0 {
		buf = AppendRecord(buf, Record{Kind: KindClock, Counter: lease})
	}
	tmp := filepath.Join(sdir, snapTmp)
	f, err := createFile(tmp)
	if err != nil {
		return err
	}
	if err := l.writeSync(f, buf); err != nil {
		return err
	}
	if !l.opts.NoSync {
		l.stats.fileSyncs.Add(1)
	}
	if err := os.Rename(tmp, snapPath(l.dir, shard, tag)); err != nil {
		return err
	}
	if err := l.syncDir(sdir); err != nil {
		return err
	}
	if prev != 0 && prev != tag {
		return os.Remove(snapPath(l.dir, shard, prev))
	}
	return nil
}

// writeSync writes data to f, fsyncs it unless NoSync, and closes it.
func (l *Log) writeSync(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory so file creates, deletes and renames in it
// are themselves durable.
func (l *Log) syncDir(dir string) error {
	if l.opts.NoSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
