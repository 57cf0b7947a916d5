package wal

import (
	"fmt"
	"testing"
)

// BenchmarkCommitBatch8 is the WAL layer's group-commit cell: one
// replica's quorum batch of 8 records spread over the default 16
// shards, then one Sync barrier. It reports the syscalls each round
// costs, which must stay at one write and (with sync on) one fsync.
//
//	go test ./internal/wal -run '^$' -bench CommitBatch8 -benchtime 20000x
func BenchmarkCommitBatch8(b *testing.B) {
	for _, noSync := range []bool{true, false} {
		b.Run(fmt.Sprintf("nosync=%v", noSync), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Shards: 16, NoSync: noSync, SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Abandon()
			recs := make([]Record, 8)
			for i := range recs {
				recs[i] = put(i*5%16, fmt.Sprintf("key-%02d", i), 0, 1, string(make([]byte, 128)))
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range recs {
					recs[i].Counter = uint64(n + 1)
					if err := l.Append(recs[i]); err != nil {
						b.Fatal(err)
					}
				}
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := l.Stats()
			rounds := float64(st.SyncRounds)
			b.ReportMetric(float64(st.Writes)/rounds, "writes/round")
			b.ReportMetric(float64(st.FileSyncs)/rounds, "fsyncs/round")
		})
	}
}
