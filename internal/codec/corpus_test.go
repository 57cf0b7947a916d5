// Seed fuzz corpus maintenance for FuzzDecodeBody. The corpus under
// testdata/fuzz/FuzzDecodeBody is committed so `go test -fuzz` starts from
// real frames of every protocol — rkv's register, batch, reconfiguration,
// workload and lease messages (tags 0x10-0x1f, 0x30-0x37) and dmutex's
// seven mutex messages (0x20-0x26) — instead of rediscovering the wire
// format from zero. Files named seed-* must decode cleanly; files named
// reject-* must be rejected (reject-tag-0x00 is a real payload under the
// reserved tag 0, which no registration may claim).
// Go's fuzzer replays the whole corpus on plain `go test` runs too, so a
// decoder regression on any historical frame shape fails CI immediately.
//
// This file lives in package codec_test (not codec) because the frames are
// produced by the real rkv/dmutex registries, which import codec.
//
// Regenerate after adding a wire message:
//
//	go test ./internal/codec -run TestSeedCorpus -update-corpus
package codec_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hquorum/internal/codec"
	"hquorum/internal/dmutex"
	"hquorum/internal/rkv"
)

var updateCorpus = flag.Bool("update-corpus", false, "regenerate the committed seed fuzz corpus")

const corpusDir = "testdata/fuzz/FuzzDecodeBody"

// liveRegistry is the union of every protocol's real binary codecs — the
// registry a production transport carries.
func liveRegistry() *codec.Registry {
	reg := codec.NewRegistry()
	rkv.RegisterBinaryWire(reg)
	dmutex.RegisterBinaryWire(reg)
	return reg
}

// seedFrames returns the corpus entries: file name -> frame body (the
// bytes FuzzDecodeBody consumes, i.e. everything after the length prefix).
func seedFrames(t *testing.T) map[string][]byte {
	t.Helper()
	reg := liveRegistry()
	frames := make(map[string][]byte)
	add := func(v any) {
		var buf bytes.Buffer
		enc := codec.NewEncoder(&buf, reg)
		if _, err := enc.Encode(5, v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		data := buf.Bytes()
		size, n := binary.Uvarint(data)
		body := data[n : n+int(size)]
		r := codec.NewReader(body)
		r.Uvarint() // from
		tag := r.Uvarint()
		frames[fmt.Sprintf("seed-tag-0x%02x", tag)] = body
		if len(frames) == 1 {
			// The first sample's payload again, under tag 0.
			frames["reject-tag-0x00"] = append([]byte{5, 0}, r.Rest()...)
		}
	}
	for _, v := range rkv.WireSamples() {
		add(v)
	}
	for _, v := range dmutex.WireSamples() {
		add(v)
	}
	return frames
}

// TestSeedCorpusCoversAllTags verifies the committed corpus: every file
// parses, every well-formed seed decodes cleanly against the live
// registry, every reject-* frame is refused, and together the files
// cover every registered tag plus the reserved tag 0. With
// -update-corpus it (re)writes the seed files first.
func TestSeedCorpusCoversAllTags(t *testing.T) {
	frames := seedFrames(t)
	if *updateCorpus {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range frames {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
			if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("wrote %d seed frames to %s", len(frames), corpusDir)
	}

	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("corpus missing (run with -update-corpus to generate): %v", err)
	}
	reg := liveRegistry()
	covered := make(map[uint64]bool)
	seeds := 0
	for _, e := range entries {
		body := readCorpusFile(t, filepath.Join(corpusDir, e.Name()))
		r := codec.NewReader(body)
		r.Uvarint() // from
		tag := r.Uvarint()
		if r.Err() == nil {
			covered[tag] = true
		}
		_, _, err := codec.DecodeBody(body, reg)
		switch {
		case strings.HasPrefix(e.Name(), "seed-"):
			if err != nil {
				t.Errorf("%s: well-formed seed no longer decodes: %v", e.Name(), err)
			}
		case strings.HasPrefix(e.Name(), "reject-"):
			if err == nil {
				t.Errorf("%s: hostile frame decoded", e.Name())
			}
		default:
			continue // fuzz-discovered additions need not decode cleanly
		}
		seeds++
	}
	if seeds < len(frames) {
		t.Errorf("corpus holds %d seed files, want %d (run with -update-corpus)", seeds, len(frames))
	}
	want := []uint64{0}
	for tag := uint64(0x10); tag <= 0x1f; tag++ { // rkv: register + batch + reconfig + workload
		want = append(want, tag)
	}
	for tag := uint64(0x20); tag <= 0x26; tag++ { // dmutex
		want = append(want, tag)
	}
	want = append(want, 0x30) // rkv overflow block: workload reply
	for _, tag := range want {
		if !covered[tag] {
			t.Errorf("corpus covers no frame with tag 0x%02x", tag)
		}
	}
}

// readCorpusFile parses Go's fuzz corpus format: a version line followed
// by one []byte("...") literal.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	lit := strings.TrimSpace(lines[1])
	if !strings.HasPrefix(lit, "[]byte(") || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: unexpected corpus entry %q", path, lit)
	}
	s, err := strconv.Unquote(lit[len("[]byte(") : len(lit)-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
