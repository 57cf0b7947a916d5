package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/epoch"
	"hquorum/internal/gateway"
	"hquorum/internal/lease"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

// Cluster shape shared by every workload: a 4×4 h-grid of in-process
// replicas on a loopback-TCP mesh, 4096 keys, and the rkv client
// pipeline of window 8 × batch 8.
const (
	rows, cols = 4, 4
	members    = rows * cols
	nkeys      = 4096
	window     = 8
	batch      = 8
	attemptTTL = 300 * time.Millisecond
	opDeadline = 5 * time.Second
	clients    = 2       // client replica nodes, or gateway connections: one per CPU
	streamLen  = 1 << 20 // pre-generated ops per client stream, replayed cyclically
	// meshSeed seeds the nodes' own rngs. It is fixed so that every run
	// draws the same cached quorums: which replicas the two clients'
	// quorums share moves throughput by several percent, and that is a
	// property of the program's rng, not of the generated inputs.
	meshSeed = 1
)

// Load phases. Completions are accounted by the phase they land in.
const (
	phaseWarm int32 = iota
	phaseWindow
	phaseIdle // between the window and the fault: completions only update the ledger
	phaseFault
	phaseStop
)

// stream is one client's pre-generated op sequence: bit 15 marks a
// write, the low bits are the key index.
type stream struct {
	id  int
	ops []uint16
	pos atomic.Uint64
	seq atomic.Uint64
}

func genStreams(seed int64, w workload) []*stream {
	out := make([]*stream, clients)
	for c := range out {
		r := rand.New(rand.NewSource(seed*7919 + int64(c)))
		var z *rand.Zipf
		if w.zipf > 0 {
			z = rand.NewZipf(r, w.zipf, 1, nkeys-1)
		}
		ops := make([]uint16, streamLen)
		for i := range ops {
			var k uint16
			if z != nil {
				k = uint16(z.Uint64())
			} else {
				k = uint16(r.Intn(nkeys))
			}
			if r.Float64() >= w.reads {
				k |= 0x8000
			}
			ops[i] = k
		}
		out[c] = &stream{id: c, ops: ops}
	}
	return out
}

func (s *stream) next() (key int, write bool) {
	op := s.ops[(s.pos.Add(1)-1)%uint64(len(s.ops))]
	return int(op & 0x7fff), op&0x8000 != 0
}

// op builds the next rkv op of the stream and the id of its write.
func (s *stream) op(keys []string, size int) (op rkv.Op, key int, id uint64) {
	key, write := s.next()
	op = rkv.Op{Kind: rkv.OpRead, Key: keys[key]}
	if write {
		seq := s.seq.Add(1)
		op.Kind, op.Value = rkv.OpWrite, makeValue(s.id, key, seq, size)
		id = writeID(s.id, seq)
	}
	return op, key, id
}

// load is the closed-loop client side: every client keeps w.slots ops in
// flight and issues the next one from the previous one's completion.
type load struct {
	w      workload
	keys   []string
	ledger *ledger
	t0     time.Time
	phase  atomic.Int32

	warmLeft atomic.Int64
	warmDone chan struct{}

	lat              *latPair // window latencies by kind
	winReads         atomic.Uint64
	winWrites        atomic.Uint64
	winFailed        atomic.Uint64
	faultOps         atomic.Uint64
	faultFailed      atomic.Uint64
	lastDone, maxGap atomic.Int64

	badMu sync.Mutex
	bad   error // first wrong read observed during the run

	wg sync.WaitGroup
}

func (l *load) now() int64 { return int64(time.Since(l.t0)) }

func (l *load) finish(key int, write bool, id uint64, start, end int64, err error, value string) {
	switch {
	case write && err == nil:
		l.ledger.acked(key, id, start, end)
	case write:
		l.ledger.failed(key, id)
	case err == nil:
		if _, k, err := parseValue(value); err != nil || k != key {
			l.fail(fmt.Errorf("read of key %d returned %q", key, value))
		}
	}
	switch l.phase.Load() {
	case phaseWarm:
		if l.warmLeft.Add(-1) == 0 {
			close(l.warmDone)
		}
	case phaseWindow:
		if write {
			l.lat.w.record(end - start)
			l.winWrites.Add(1)
		} else {
			l.lat.r.record(end - start)
			l.winReads.Add(1)
		}
		if err != nil {
			l.winFailed.Add(1)
		}
	case phaseFault:
		l.faultOps.Add(1)
		if err != nil {
			l.faultFailed.Add(1)
			return
		}
		gap := end - l.lastDone.Swap(end)
		for {
			m := l.maxGap.Load()
			if gap <= m || l.maxGap.CompareAndSwap(m, gap) {
				break
			}
		}
	}
}

func (l *load) fail(err error) {
	l.badMu.Lock()
	if l.bad == nil {
		l.bad = err
	}
	l.badMu.Unlock()
}

// slot is one in-flight op of a client replica node.
type slot struct {
	l     *load
	s     *stream
	node  *rkv.Node
	key   int
	write bool
	id    uint64
	start int64
	cb    func(rkv.Result)
}

func (sl *slot) issue() {
	op, key, id := sl.s.op(sl.l.keys, sl.l.w.valueSize)
	sl.key, sl.write, sl.id = key, op.Kind == rkv.OpWrite, id
	sl.start = sl.l.now()
	sl.node.Submit(op, sl.cb)
}

func (sl *slot) done(r rkv.Result) {
	sl.l.finish(sl.key, sl.write, sl.id, sl.start, sl.l.now(), r.Err, r.Value)
	if sl.l.phase.Load() == phaseStop {
		sl.l.wg.Done()
		return
	}
	sl.issue()
}

// gwWorker is one in-flight op of a gateway client connection.
func (l *load) gwWorker(s *stream, cl *gateway.Client) {
	defer l.wg.Done()
	for l.phase.Load() != phaseStop {
		op, key, id := s.op(l.keys, l.w.valueSize)
		start := l.now()
		rep, err := cl.Do(op)
		l.finish(key, op.Kind == rkv.OpWrite, id, start, l.now(), err, rep.Value)
	}
}

// rig is one running cluster with its clients.
type rig struct {
	w       workload
	traced  bool
	dataDir string
	t0      time.Time

	nodes   []*rkv.Node
	shims   []*nodeShim
	mesh    *transport.Mesh
	gw      *gateway.Server
	gwTrace *optrace.Tracer
	session *sessionShim
	conns   []*gateway.Client
	load    *load
}

// sessionID is the gateway's session node: inside the epoch universe so
// it coordinates rounds, outside the member set so it holds no replica.
const sessionID = members

func (r *rig) clientIDs() []int {
	if r.w.gateway {
		return nil
	}
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// build constructs and starts the cluster, preloads one write per key,
// activates the lease (gw-lease-read) and runs the warm-up. Everything
// it does is set-up time.
func (r *rig) build(streams []*stream, keys []string, lat *latPair) error {
	w := r.w
	universe := members
	if w.gateway {
		universe++
	}
	params := epoch.Params{Flavor: epoch.FlavorHGrid, Rows: rows, Cols: cols, Members: epoch.MemberRange(0, members)}
	handlers := make([]cluster.Handler, universe)
	for i := 0; i < universe; i++ {
		es, err := epoch.NewStore(universe, params)
		if err != nil {
			return err
		}
		cfg := rkv.Config{
			Epochs:        es,
			Timeout:       attemptTTL,
			OpDeadline:    opDeadline,
			ReadWriteback: true,
			Window:        window,
			Batch:         batch,
			OpGap:         -1,
		}
		if w.disk {
			// fsync off: the data directory lives in the benchmark's
			// checkout on a shared virtual disk, whose fsync time belongs
			// to other tenants. Appends, group-commit rounds, write
			// syscalls and snapshots all still run.
			cfg.Storage = "disk"
			cfg.DataDir = filepath.Join(r.dataDir, fmt.Sprintf("n%02d", i))
			cfg.WALNoSync = true
		}
		if w.gateway && i == sessionID {
			// Always-grant: the session's traffic arrives only after the
			// lease exists, so the mix gate must not decide.
			cfg.Lease = &lease.Config{
				Shards:      16,
				TTL:         time.Second,
				Check:       25 * time.Millisecond,
				MinReadFrac: -1,
				Acquire:     true,
			}
		}
		node, err := rkv.NewNode(cluster.NodeID(i), cfg)
		if err != nil {
			return err
		}
		r.nodes = append(r.nodes, node)
		handlers[i] = node
		if r.traced {
			sh := newNodeShim(node)
			r.shims = append(r.shims, sh)
			handlers[i] = sh
		}
	}
	mesh, err := transport.NewMesh(handlers, transport.WithSeed(meshSeed))
	if err != nil {
		return err
	}
	r.mesh = mesh
	mesh.Start()
	for i, node := range r.nodes {
		tn, node := mesh.Node(i), node
		node.SetWake(func() { tn.Kick(0, node.StartToken()) })
	}

	l := &load{w: w, keys: keys, ledger: newLedger(nkeys), t0: r.t0, lat: lat, warmDone: make(chan struct{})}
	l.warmLeft.Store(int64(w.warmupOps))
	r.load = l

	coord := r.nodes[0]
	if w.gateway {
		coord = r.nodes[sessionID]
		r.gwTrace = optrace.New(0)
		var sess gateway.Session = coord
		if r.traced {
			r.session = &sessionShim{n: coord, t0: r.t0, hist: new(latHist)}
			sess = r.session
		}
		r.gw, err = gateway.Serve("127.0.0.1:0", gateway.Config{
			Sessions:      []gateway.Session{sess},
			SessionDepth:  window * batch,
			ClientQueue:   w.slots + 4,
			DispatchBurst: batch,
			Trace:         r.gwTrace,
		})
		if err != nil {
			return err
		}
		for c := 0; c < clients; c++ {
			cl, err := gateway.Dial(r.gw.Addr())
			if err != nil {
				return err
			}
			r.conns = append(r.conns, cl)
		}
	}

	if err := r.preload(coord); err != nil {
		return err
	}
	if w.gateway {
		mesh.Node(sessionID).Kick(0, rkv.LeaseToken())
		deadline := time.Now().Add(10 * time.Second)
		for coord.LeaseStats().Grants == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("lease never granted: %+v", coord.LeaseStats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	for _, s := range streams {
		s.pos.Store(0)
		s.seq.Store(0)
	}
	if w.gateway {
		for c, cl := range r.conns {
			for i := 0; i < w.slots; i++ {
				l.wg.Add(1)
				go l.gwWorker(streams[c], cl)
			}
		}
	} else {
		for _, c := range r.clientIDs() {
			for i := 0; i < w.slots; i++ {
				sl := &slot{l: l, s: streams[c], node: r.nodes[c]}
				sl.cb = sl.done
				l.wg.Add(1)
				sl.issue()
			}
		}
	}
	select {
	case <-l.warmDone:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("warm-up of %d ops did not finish", w.warmupOps)
	}
}

// preload writes every key once through coord and records the writes.
func (r *rig) preload(coord *rkv.Node) error {
	l := r.load
	var wg sync.WaitGroup
	var failed atomic.Int64
	wg.Add(nkeys)
	for k := 0; k < nkeys; k++ {
		k, start := k, l.now()
		id := writeID(preloadWriter, uint64(k))
		op := rkv.Op{Kind: rkv.OpWrite, Key: l.keys[k], Value: makeValue(preloadWriter, k, uint64(k), r.w.valueSize)}
		coord.Submit(op, func(res rkv.Result) {
			if res.Err != nil {
				failed.Add(1)
				l.ledger.failed(k, id)
			} else {
				l.ledger.acked(k, id, start, l.now())
			}
			wg.Done()
		})
	}
	if err := waitGroup(&wg, 60*time.Second); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("preload: %d writes failed", n)
	}
	return nil
}

// stop ends the load and waits for every in-flight op to complete.
func (r *rig) stop() error {
	r.load.phase.Store(phaseStop)
	return waitGroup(&r.load.wg, 30*time.Second)
}

// check reads every key through a live coordinator that holds no lease
// (so each read is a quorum read) and verifies it against the ledger,
// along with any wrong read seen during the run.
func (r *rig) check(exclude int) error {
	l := r.load
	l.badMu.Lock()
	bad := l.bad
	l.badMu.Unlock()
	if bad != nil {
		return bad
	}
	coord := -1
	for i := 0; i < members && coord < 0; i++ {
		if i != exclude {
			coord = i
		}
	}
	node := r.nodes[coord]
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	wg.Add(nkeys)
	for k := 0; k < nkeys; k++ {
		k := k
		node.Submit(rkv.Op{Kind: rkv.OpRead, Key: l.keys[k]}, func(res rkv.Result) {
			err := res.Err
			if err == nil {
				err = l.ledger.verify(k, res.Value)
			}
			if err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("check read of key %d: %w", k, err)
				}
				mu.Unlock()
			}
			wg.Done()
		})
	}
	if err := waitGroup(&wg, 60*time.Second); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	return first
}

// close tears the rig down and removes its data directory.
func (r *rig) close() error {
	for _, cl := range r.conns {
		cl.Close()
	}
	if r.gw != nil {
		r.gw.Close()
	}
	if r.mesh != nil {
		r.mesh.Close()
	}
	var first error
	for _, node := range r.nodes {
		if err := node.Close(); err != nil && first == nil {
			first = err
		}
	}
	if r.dataDir != "" {
		if err := os.RemoveAll(r.dataDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func waitGroup(wg *sync.WaitGroup, limit time.Duration) error {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("timed out after %v", limit)
	}
}
