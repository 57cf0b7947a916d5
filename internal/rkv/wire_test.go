package rkv

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
)

// TestBinaryWireRoundTrip: every protocol message survives the binary
// codec byte-for-value, including size-0 and huge fields.
func TestBinaryWireRoundTrip(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	RegisterBinaryWire(reg) // idempotent

	msgs := []any{
		msgReadVersion{Seq: 0},
		msgReadVersion{Seq: 1<<64 - 1},
		msgVersionReply{Seq: 7, Version: Version{Counter: 9, Writer: 15}, Value: "hello"},
		msgVersionReply{}, // all zero
		msgWrite{Seq: 1, Version: Version{Counter: 1 << 40, Writer: 3}, Value: string(make([]byte, 4096))},
		msgWrite{Seq: 2, Version: Version{Counter: 5}, Value: "日本語 value"},
		msgWriteAck{Seq: 3},
		msgReadBatch{Seq: 4, Keys: []string{"", "k1", "日本語 key"}},
		msgReadBatch{Seq: 5}, // empty batch round-trips as nil
		msgReadBatchReply{
			Seq:  6,
			Vers: []Version{{Counter: 9, Writer: 15}, {}},
			Vals: []string{"x", ""},
		},
		msgWriteBatch{
			Seq:  7,
			Keys: []string{"a", "b"},
			Vers: []Version{{Counter: 1 << 40, Writer: 3}, {Counter: 2, Writer: 0}},
			Vals: []string{string(make([]byte, 2048)), ""},
		},
	}
	var buf bytes.Buffer
	enc := codec.NewEncoder(&buf, reg)
	for i, m := range msgs {
		if _, err := enc.Encode(uint64(i), m); err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
	}
	dec := codec.NewDecoder(bufio.NewReader(&buf), reg)
	for i, want := range msgs {
		from, got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if from != uint64(i) || !reflect.DeepEqual(got, want) {
			t.Fatalf("decode %d: from=%d got %#v want %#v", i, from, got, want)
		}
	}
}

// TestBatchDecodeRejectsHostileCount: a frame claiming more batch elements
// than its payload could possibly hold must fail cleanly instead of
// allocating element slices sized by the attacker.
func TestBatchDecodeRejectsHostileCount(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	for _, tag := range []uint64{tagReadBatch, tagReadBatchRep, tagWriteBatch} {
		// Body: from=1, tag, then payload {seq=1, count=2^40} and nothing else.
		var body []byte
		body = codec.AppendUvarint(body, 1)
		body = codec.AppendUvarint(body, tag)
		body = codec.AppendUvarint(body, 1)
		body = codec.AppendUvarint(body, 1<<40)
		if _, _, err := codec.DecodeBody(body, reg); err == nil {
			t.Fatalf("tag %#x: hostile element count decoded without error", tag)
		}
	}
}

// TestBinaryWireRandomRoundTrip: randomized writes — arbitrary value
// bytes, full-range counters — decode to exactly the message encoded.
func TestBinaryWireRandomRoundTrip(t *testing.T) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		val := make([]byte, rng.Intn(64))
		rng.Read(val)
		m := msgWrite{
			Epoch:   rng.Uint64(),
			Seq:     rng.Uint64(),
			Version: Version{Counter: rng.Uint64(), Writer: cluster.NodeID(rng.Intn(1 << 20))},
			Value:   string(val),
		}
		var buf bytes.Buffer
		if _, err := codec.NewEncoder(&buf, reg).Encode(1, m); err != nil {
			t.Fatal(err)
		}
		_, got, err := codec.NewDecoder(bufio.NewReader(&buf), reg).Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("decoded %#v, want %#v", got, m)
		}
	}
}

func BenchmarkWireEncodeWrite(b *testing.B) {
	reg := codec.NewRegistry()
	RegisterBinaryWire(reg)
	enc := codec.NewEncoder(discard{}, reg)
	m := msgWrite{Seq: 123, Version: Version{Counter: 456, Writer: 7}, Value: "benchmark value"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(7, m); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
