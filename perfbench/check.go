package main

import (
	"fmt"
	"math"
	"strconv"
	"sync"
)

// A written value is "WWKKKKSSSSSSSSSS" in hex — writer, key index and
// the writer's sequence number — padded with '.' to the workload's value
// size. The ledger can therefore name the exact write any value came
// from.
const valueHeader = 16

// preloadWriter is the writer id of the one-write-per-key preload.
const preloadWriter = 0xff

func writeID(writer int, seq uint64) uint64 { return uint64(writer)<<40 | seq }

func makeValue(writer, key int, seq uint64, size int) string {
	var buf [256]byte
	b := buf[:0]
	b = appendHex(b, uint64(writer), 2)
	b = appendHex(b, uint64(key), 4)
	b = appendHex(b, seq, 10)
	for len(b) < size {
		b = append(b, '.')
	}
	return string(b)
}

func appendHex(b []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	for i := width - 1; i >= 0; i-- {
		b = append(b, digits[(v>>(4*uint(i)))&0xf])
	}
	return b
}

// parseValue returns the write id and key index a value encodes.
func parseValue(v string) (id uint64, key int, err error) {
	if len(v) < valueHeader {
		return 0, 0, fmt.Errorf("value %q is shorter than its header", v)
	}
	w, err1 := strconv.ParseUint(v[0:2], 16, 64)
	k, err2 := strconv.ParseUint(v[2:6], 16, 64)
	s, err3 := strconv.ParseUint(v[6:16], 16, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, fmt.Errorf("value %q has a malformed header", v)
	}
	return writeID(int(w), s), int(k), nil
}

// ledger records, per key, the writes a final quorum read may still
// legally return. An acknowledged write W is dropped once another
// acknowledged write to the same key was invoked after W completed: real
// time then orders W first, so W can no longer be the last value. A
// write that failed may have taken effect at any point after it was
// invoked, so it is never dropped.
type ledger struct {
	keys []keyLedger
}

type keyLedger struct {
	mu   sync.Mutex
	cand []candidate
}

type candidate struct {
	id   uint64
	done int64 // completion time in ns; math.MaxInt64 for a failed write
}

func newLedger(nkeys int) *ledger { return &ledger{keys: make([]keyLedger, nkeys)} }

func (l *ledger) acked(key int, id uint64, invoked, done int64) {
	k := &l.keys[key]
	k.mu.Lock()
	kept := k.cand[:0]
	for _, c := range k.cand {
		if c.done >= invoked {
			kept = append(kept, c)
		}
	}
	k.cand = append(kept, candidate{id: id, done: done})
	k.mu.Unlock()
}

func (l *ledger) failed(key int, id uint64) {
	k := &l.keys[key]
	k.mu.Lock()
	k.cand = append(k.cand, candidate{id: id, done: math.MaxInt64})
	k.mu.Unlock()
}

// verify checks a final read of key against the ledger.
func (l *ledger) verify(key int, value string) error {
	id, vk, err := parseValue(value)
	if err != nil {
		return fmt.Errorf("key %d: %w", key, err)
	}
	if vk != key {
		return fmt.Errorf("key %d returned a value written to key %d", key, vk)
	}
	k := &l.keys[key]
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.cand {
		if c.id == id {
			return nil
		}
	}
	return fmt.Errorf("key %d returned %q, which a later acknowledged write superseded", key, value[:valueHeader])
}
