package main

import (
	"runtime"

	"hquorum/internal/gateway"
	"hquorum/internal/optrace"
	"hquorum/internal/rkv"
	"hquorum/internal/transport"
	"hquorum/internal/wal"
)

// counters is one reading of every public counter the per-layer metrics
// are computed from; metrics use the difference of two readings taken at
// the ends of the measured window.
type counters struct {
	mesh       transport.Stats
	recv       []uint64 // per-node frames received
	wal        wal.Stats
	lease      rkv.LeaseStats
	hits, miss uint64
	gw         gateway.Stats
	alloc      uint64
	gcs        uint32
	busy       int64 // shim handler time (traced rigs)
}

func snapshot(r *rig) counters {
	c := counters{mesh: r.mesh.Stats(), recv: make([]uint64, len(r.nodes))}
	for i, node := range r.nodes {
		c.recv[i] = r.mesh.Node(i).Stats().Received
		ws := node.WALStats()
		c.wal.SyncRounds += ws.SyncRounds
		c.wal.Snapshots += ws.Snapshots
		c.wal.Bytes += ws.Bytes
		ls := node.LeaseStats()
		c.lease.LocalReads += ls.LocalReads
		c.lease.Expiries += ls.Expiries
		h, m := node.PickCacheStats()
		c.hits += h
		c.miss += m
	}
	if r.gw != nil {
		c.gw = r.gw.Stats()
	}
	for _, sh := range r.shims {
		c.busy += sh.busy.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs = ms.TotalAlloc, ms.NumGC
	return c
}

// replicaLoads returns each non-client member's share of the frames
// received by non-client members over the window. Client nodes are left
// out because their counts include the replies to their own rounds.
func replicaLoads(r *rig, c0, c1 counters) map[int]float64 {
	isClient := map[int]bool{}
	for _, id := range r.clientIDs() {
		isClient[id] = true
	}
	var total float64
	for i := 0; i < members; i++ {
		if !isClient[i] {
			total += float64(c1.recv[i] - c0.recv[i])
		}
	}
	out := map[int]float64{}
	for i := 0; i < members; i++ {
		if !isClient[i] && total > 0 {
			out[i] = float64(c1.recv[i]-c0.recv[i]) / total
		}
	}
	return out
}

// busiest is the fault victim: the non-client replica that received the
// most frames during the window. A fixed victim can sit outside every
// cached quorum and cause no stall at all.
func busiest(r *rig, c0, c1 counters) int {
	loads := replicaLoads(r, c0, c1)
	best, bestLoad := -1, -1.0
	for i := 0; i < members; i++ {
		if load, ok := loads[i]; ok && load > bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the per-layer metrics that come from counters.
func counterMetrics(r *rig, c0, c1 counters, ops, reads, writes uint64) map[string]metric {
	d := func(a, b uint64) float64 { return float64(b - a) }
	maxLoad := 0.0
	for _, v := range replicaLoads(r, c0, c1) {
		maxLoad = max(maxLoad, v)
	}
	fops, freads, fwrites := float64(ops), float64(reads), float64(writes)
	return map[string]metric{
		"transport.msgs_per_op":      {ratio(d(c0.mesh.Sent, c1.mesh.Sent), fops), "msgs"},
		"transport.msgs_per_flush":   {ratio(d(c0.mesh.Sent, c1.mesh.Sent), d(c0.mesh.Flushes, c1.mesh.Flushes)), "msgs"},
		"transport.bytes_per_op":     {ratio(d(c0.mesh.BytesOut, c1.mesh.BytesOut), fops), "B"},
		"rkv.pick_cache_hit_frac":    {ratio(d(c0.hits, c1.hits), d(c0.hits, c1.hits)+d(c0.miss, c1.miss)), "frac"},
		"rkv.max_replica_load":       {maxLoad, "frac"},
		"wal.sync_rounds_per_write":  {ratio(d(c0.wal.SyncRounds, c1.wal.SyncRounds), fwrites), "count"},
		"wal.bytes_per_write":        {ratio(d(c0.wal.Bytes, c1.wal.Bytes), fwrites), "B"},
		"wal.snapshots":              {d(c0.wal.Snapshots, c1.wal.Snapshots), "count"},
		"lease.local_read_frac":      {ratio(d(c0.lease.LocalReads, c1.lease.LocalReads), freads), "frac"},
		"lease.expiries":             {d(c0.lease.Expiries, c1.lease.Expiries), "count"},
		"gateway.shed_frac":          {ratio(d(c0.gw.Shed, c1.gw.Shed), d(c0.gw.Requests, c1.gw.Requests)), "frac"},
		"runtime.alloc_bytes_per_op": {ratio(d(c0.alloc, c1.alloc), fops), "B"},
		"runtime.gc_cycles_per_kop":  {ratio(1000*float64(c1.gcs-c0.gcs), fops), "count"},
	}
}

// setSample sets optrace sampling on every node and the gateway.
func (r *rig) setSample(every int) {
	for _, node := range r.nodes {
		node.Tracer().SetSample(every)
	}
	r.gwTrace.SetSample(every)
}

// traceSnapshot merges every node's and the gateway's stage histograms.
func (r *rig) traceSnapshot() (optrace.Snapshot, error) {
	var snap optrace.Snapshot
	for _, node := range r.nodes {
		if err := snap.Merge(node.TraceSnapshot()); err != nil {
			return snap, err
		}
	}
	if r.gwTrace != nil {
		if err := snap.Merge(r.gwTrace.Snapshot()); err != nil {
			return snap, err
		}
	}
	return snap, nil
}

// tracedStages are the optrace stages the traced run can sample: the
// handler-side ones the shim's records carry, the coordinator's quorum
// wait and the gateway's. The transport's own stages (queue, decode,
// encode, send) stay unsampled (see nodeShim), and no workload runs a
// lease invalidation barrier (lease), so those never get samples.
var tracedStages = []string{"lock", "storage", "wal_wait", "fsync", "quorum", "total", "gw_queue", "gw_dispatch"}

// stageMetrics reports each traced stage's p50 (0 for a stage that no op
// passed through on this workload).
func stageMetrics(snap optrace.Snapshot) map[string]metric {
	out := map[string]metric{}
	for _, name := range tracedStages {
		out["stage."+name+"_p50_us"] = metric{snap.Stages[name].P50Us, "us"}
	}
	return out
}
