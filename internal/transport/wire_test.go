package transport

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/codec"
	"hquorum/internal/dmutex"
	"hquorum/internal/rkv"
)

// TestWireCompleteness guards the one wire format. The simulator and
// MemMesh never encode, so a protocol message shipped without a binary
// codec would first fail on TCP. Parse each protocol package's sources:
// every declared msg* struct type must appear in the package's
// WireSamples, and every sample must encode under DefaultRegistry (it has
// a tag) and decode back to a value equal to the original.
func TestWireCompleteness(t *testing.T) {
	reg := DefaultRegistry()
	total := 0
	for _, pkg := range []struct {
		dir     string
		samples []any
	}{
		{"../rkv", rkv.WireSamples()},
		{"../dmutex", dmutex.WireSamples()},
	} {
		sampled := make(map[string]bool)
		for _, v := range pkg.samples {
			sampled[reflect.TypeOf(v).Name()] = true
			var buf bytes.Buffer
			if _, err := codec.NewEncoder(&buf, reg).Encode(3, v); err != nil {
				t.Errorf("%s: %T: %v", pkg.dir, v, err)
				continue
			}
			from, got, err := codec.NewDecoder(bufio.NewReader(&buf), reg).Decode()
			if err != nil || from != 3 || !reflect.DeepEqual(got, v) {
				t.Errorf("%s: %T round trip: from=%d got %#v err %v, want %#v", pkg.dir, v, from, got, err, v)
			}
		}
		declared := msgStructs(t, pkg.dir)
		if len(declared) == 0 {
			t.Fatalf("%s: no msg* struct types found", pkg.dir)
		}
		for _, name := range declared {
			if !sampled[name] {
				t.Errorf("%s: %s has no WireSamples entry", pkg.dir, name)
			}
		}
		total += len(declared)
	}
	t.Logf("%d protocol message types checked", total)
}

// msgStructs lists the struct types named msg* declared in the non-test
// sources of the package in dir.
func msgStructs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if _, isStruct := ts.Type.(*ast.StructType); isStruct && strings.HasPrefix(ts.Name.Name, "msg") {
					names = append(names, ts.Name.Name)
				}
				return false
			})
		}
	}
	return names
}

// TestUnencodableMessageDropsAlone: a message the codec refuses (here a
// type with no registration) sent between registered ones is dropped by
// itself. The connection and the batch around it survive, so every
// registered message arrives over the one connection the writer dialed.
func TestUnencodableMessageDropsAlone(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var got []string
	accepted := 0
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepted++
			mu.Unlock()
			go func() {
				defer c.Close()
				dec := codec.NewDecoder(bufio.NewReader(c), pingRegistry)
				for {
					_, v, err := dec.Decode()
					if err != nil {
						return
					}
					mu.Lock()
					got = append(got, v.(ping).Text)
					mu.Unlock()
				}
			}()
		}
	}()

	n, err := NewNode(1, &echo{}, "127.0.0.1:0", WithRegistry(pingRegistry))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Connect(map[cluster.NodeID]string{2: ln.Addr().String()})
	n.Start()

	type unregistered struct{ X int }
	// One burst (the writer batches it behind its dial), then a later
	// send that must reuse the same connection.
	n.send(2, ping{Text: "a"}, nil)
	n.send(2, unregistered{X: 1}, nil)
	n.send(2, ping{Text: "b"}, nil)
	time.Sleep(100 * time.Millisecond)
	n.send(2, ping{Text: "c"}, nil)

	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0 && got[len(got)-1] == "c"
	})
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(got, ",") != "a,b,c" || accepted != 1 {
		t.Fatalf("received %v over %d connection(s), want [a b c] over 1", got, accepted)
	}
	if d := n.Stats().Dropped; d != 1 {
		t.Fatalf("dropped %d, want just the unencodable message", d)
	}
}
