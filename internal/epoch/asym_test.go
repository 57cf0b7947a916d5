package epoch

import (
	"math/rand"
	"testing"

	"hquorum/internal/bitset"
	"hquorum/internal/cluster"
	"hquorum/internal/htgrid"
)

func TestAsymValidate(t *testing.T) {
	good := []Params{
		{Flavor: FlavorMajority, R: 3, W: 5, Members: MemberRange(0, 7)},
		{Flavor: FlavorMajority, R: 7, W: 4, Members: MemberRange(0, 7)},
		{Flavor: FlavorMajority, Members: MemberRange(0, 7)},
		{Flavor: FlavorHMaj, Rows: 4, RL: []int{2, 2}, WL: []int{3, 3}, Members: MemberRange(0, 16)},
		{Flavor: FlavorHMaj, Rows: 2, RL: []int{1, 1, 2}, WL: []int{2, 2, 2}, Members: MemberRange(0, 8)},
	}
	for _, p := range good {
		if err := p.Validate(32); err != nil {
			t.Errorf("%v: unexpected validation error: %v", p, err)
		}
	}
	bad := []struct {
		name string
		p    Params
	}{
		{"maj-no-intersect", Params{Flavor: FlavorMajority, R: 3, W: 4, Members: MemberRange(0, 7)}},
		{"maj-write-split", Params{Flavor: FlavorMajority, R: 5, W: 3, Members: MemberRange(0, 7)}},
		{"maj-out-of-range", Params{Flavor: FlavorMajority, R: 8, W: 8, Members: MemberRange(0, 7)}},
		{"rw-on-grid", Params{Flavor: FlavorHGrid, Rows: 2, Cols: 2, R: 2, W: 3, Members: MemberRange(0, 4)}},
		{"levels-on-majority", Params{Flavor: FlavorMajority, RL: []int{1}, WL: []int{1}, Members: MemberRange(0, 4)}},
		{"hmaj-shape", Params{Flavor: FlavorHMaj, Rows: 4, RL: []int{2, 2}, WL: []int{3, 3}, Members: MemberRange(0, 8)}},
		{"hmaj-mismatched-levels", Params{Flavor: FlavorHMaj, Rows: 4, RL: []int{2, 2}, WL: []int{3}, Members: MemberRange(0, 16)}},
		{"hmaj-no-intersect", Params{Flavor: FlavorHMaj, Rows: 4, RL: []int{1, 2}, WL: []int{3, 2}, Members: MemberRange(0, 16)}},
		{"hmaj-write-split", Params{Flavor: FlavorHMaj, Rows: 4, RL: []int{3, 3}, WL: []int{2, 2}, Members: MemberRange(0, 16)}},
		{"hmaj-degree-1", Params{Flavor: FlavorHMaj, Rows: 1, RL: []int{1}, WL: []int{1}, Members: MemberRange(0, 1)}},
	}
	for _, c := range bad {
		if err := c.p.Validate(32); err == nil {
			t.Errorf("%s: want validation error", c.name)
		}
	}
}

func TestAsymRoundTrip(t *testing.T) {
	params := []Params{
		{Flavor: FlavorMajority, R: 3, W: 5, Members: MemberRange(0, 7)},
		{Flavor: FlavorHMaj, Rows: 4, RL: []int{2, 2}, WL: []int{3, 3}, Members: MemberRange(0, 16)},
	}
	for _, p := range params {
		got, err := DecodeParams(p.Encode(nil))
		if err != nil {
			t.Fatalf("%v: decode: %v", p, err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip: got %v want %v", got, p)
		}
	}
	// Equal must see threshold differences.
	a := params[0]
	b := a
	b.R, b.W = 4, 4
	if a.Equal(b) {
		t.Fatal("Equal ignored majority thresholds")
	}
	c := params[1]
	d := c
	d.WL = []int{4, 4}
	if c.Equal(d) {
		t.Fatal("Equal ignored hmaj level thresholds")
	}
}

// TestAsymPickersIntersect draws read/write pairs from every asymmetric
// construction under random live sets and asserts the ABD intersection
// property (read ∩ write non-empty) plus write-write intersection.
func TestAsymPickersIntersect(t *testing.T) {
	const space = 40
	configs := []Params{
		{Flavor: FlavorMajority, R: 3, W: 5, Members: MemberRange(0, 7)},
		{Flavor: FlavorMajority, R: 1, W: 7, Members: MemberRange(0, 7)},
		{Flavor: FlavorHMaj, Rows: 4, RL: []int{2, 2}, WL: []int{3, 3}, Members: MemberRange(0, 16)},
		{Flavor: FlavorHMaj, Rows: 4, RL: []int{1, 1}, WL: []int{4, 4}, Members: MemberRange(0, 16)},
		{Flavor: FlavorHMaj, Rows: 2, RL: []int{1, 1, 2, 1}, WL: []int{2, 2, 2, 2}, Members: MemberRange(0, 16)},
		{Flavor: FlavorHMaj, Rows: 3, RL: []int{2, 2}, WL: []int{2, 3}, Members: []cluster.NodeID{3, 5, 7, 11, 13, 17, 19, 23, 29}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, p := range configs {
		pk, err := NewPickers(space, p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for trial := 0; trial < 300; trial++ {
			live := bitset.New(space)
			for _, id := range p.Members {
				if rng.Intn(4) != 0 { // ~75% alive
					live.Add(int(id))
				}
			}
			rq, rerr := pk.Read(rng, live)
			wq, werr := pk.Write(rng, live)
			if rerr != nil || werr != nil {
				continue // degraded live set; nothing to check
			}
			if !rq.Intersects(wq) {
				t.Fatalf("%v: read %v and write %v don't intersect (live %v)", p, rq, wq, live)
			}
			w2, err2 := pk.Write(rng, live)
			if err2 == nil && !wq.Intersects(w2) {
				t.Fatalf("%v: write quorums %v and %v don't intersect", p, wq, w2)
			}
			if !rq.SubsetOf(live) || !wq.SubsetOf(live) {
				t.Fatalf("%v: quorum not drawn from live set", p)
			}
		}
	}
}

// TestHTGridCrossIntersection: FlavorHTGrid pairs h-grid row-cover
// reads with §4.2's smaller h-T-grid writes. Every h-T-grid quorum meets
// every row cover (exhaustively on a 3x3 hierarchy), and reads and
// writes drawn through the pickers intersect.
func TestHTGridCrossIntersection(t *testing.T) {
	sys := htgrid.Auto(3, 3)
	covers := sys.Hierarchy().RowCovers()
	sys.EnumerateQuorums(func(w bitset.Set) bool {
		for _, r := range covers {
			if !w.Intersects(r) {
				t.Fatalf("write quorum %v misses read quorum %v", w, r)
			}
		}
		return true
	})
	pk, err := NewPickers(9, Params{Flavor: FlavorHTGrid, Rows: 3, Cols: 3, Members: MemberRange(0, 9)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		live := bitset.New(9)
		for i := 0; i < 9; i++ {
			if rng.Intn(4) != 0 {
				live.Add(i)
			}
		}
		rq, rerr := pk.Read(rng, live)
		wq, werr := pk.Write(rng, live)
		if rerr == nil && werr == nil && !rq.Intersects(wq) {
			t.Fatalf("read %v and write %v don't intersect (live %v)", rq, wq, live)
		}
	}
}

// TestHMajPickSizes checks that hmaj picks have exactly ∏threshold leaves
// and fail cleanly when no quorum survives.
func TestHMajPickSizes(t *testing.T) {
	p := Params{Flavor: FlavorHMaj, Rows: 4, RL: []int{2, 2}, WL: []int{3, 3}, Members: MemberRange(0, 16)}
	pk, err := NewPickers(16, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	live := bitset.Universe(16)
	for i := 0; i < 50; i++ {
		rq, err := pk.Read(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if rq.Count() != 4 {
			t.Fatalf("read quorum size %d want 4 (%v)", rq.Count(), rq)
		}
		wq, err := pk.Write(rng, live)
		if err != nil {
			t.Fatal(err)
		}
		if wq.Count() != 9 {
			t.Fatalf("write quorum size %d want 9 (%v)", wq.Count(), wq)
		}
	}
	// Kill one whole level-1 subtree plus one node of each remaining one:
	// reads (2 of 4 subtrees, 2 leaves each) survive, writes (3 subtrees
	// of 3 leaves) do not.
	live = bitset.Universe(16)
	for i := 0; i < 4; i++ {
		live.Remove(i) // subtree 0 entirely dead
	}
	live.Remove(4)
	live.Remove(8)
	live.Remove(12)
	live.Remove(13)
	if _, err := pk.Read(rng, live); err != nil {
		t.Fatalf("read should survive: %v", err)
	}
	if _, err := pk.Write(rng, live); err == nil {
		t.Fatal("write should fail: only two subtrees have 3 live leaves")
	}
}
