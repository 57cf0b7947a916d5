package main

import (
	"sync/atomic"
	"time"

	"hquorum/internal/cluster"
	"hquorum/internal/gateway"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
)

// nodeShim is the traced run's transport handler: it times every
// handler entry point of one rkv node. It forwards each optional
// interface the transport probes for (FastDeliverer, optrace.Source);
// without them the traced run would lose the reader fast path and time
// a different program. busy is atomic because FastDeliver runs on every
// reader goroutine at once.
//
// The tracer it hands the transport stays disabled, and the shim samples
// replica deliveries itself: with the transport sampling, a reply's
// record is claimed by the peer writer, which can fold and recycle it
// before the delivering goroutine checks Claimed and folds it again.
// At one-in-one sampling that double Done crashes within seconds.
type nodeShim struct {
	n     *rkv.Node
	quiet *optrace.Tracer
	busy  atomic.Int64 // ns spent inside Deliver, FastDeliver and Timer
}

func newNodeShim(n *rkv.Node) *nodeShim { return &nodeShim{n: n, quiet: optrace.New(0)} }

var (
	_ transport.FastDeliverer = (*nodeShim)(nil)
	_ optrace.Source          = (*nodeShim)(nil)
	_ gateway.LeaseRouter     = (*sessionShim)(nil)
)

// tracedEnv hands the handler the shim's record for its replica stages
// (lock, storage, wal_wait, fsync).
type tracedEnv struct {
	cluster.Env
	rec *optrace.Rec
}

func (e *tracedEnv) TraceRec() *optrace.Rec { return e.rec }

func (s *nodeShim) wrap(env cluster.Env) (cluster.Env, *optrace.Rec) {
	rec := s.n.Tracer().Sample()
	if rec == nil {
		return env, nil
	}
	return &tracedEnv{Env: env, rec: rec}, rec
}

func (s *nodeShim) Deliver(env cluster.Env, from cluster.NodeID, msg any) {
	t := time.Now()
	env, rec := s.wrap(env)
	s.n.Deliver(env, from, msg)
	s.busy.Add(int64(time.Since(t)))
	rec.Done()
}

func (s *nodeShim) FastDeliver(env cluster.Env, from cluster.NodeID, msg any) bool {
	t := time.Now()
	env, rec := s.wrap(env)
	ok := s.n.FastDeliver(env, from, msg)
	d := time.Since(t)
	s.busy.Add(int64(d))
	if ok {
		rec.Observe(optrace.StageTotal, d)
	}
	rec.Done()
	return ok
}

func (s *nodeShim) Timer(env cluster.Env, token any) {
	t := time.Now()
	s.n.Timer(env, token)
	s.busy.Add(int64(time.Since(t)))
}

func (s *nodeShim) Tracer() *optrace.Tracer { return s.quiet }

// sessionShim is the traced run's gateway session: it records each
// op's Submit→callback time, the session's share of a gateway request,
// and forwards LeaseRouter so leased reads are still routed to it.
type sessionShim struct {
	n    *rkv.Node
	t0   time.Time
	hist *latHist
}

func (s *sessionShim) Submit(op rkv.Op, cb func(rkv.Result)) {
	start := time.Since(s.t0)
	s.n.Submit(op, func(r rkv.Result) {
		s.hist.record(int64(time.Since(s.t0) - start))
		cb(r)
	})
}

func (s *sessionShim) LeasedRead(key string) bool { return s.n.LeasedRead(key) }
