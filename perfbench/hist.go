package main

import "sync/atomic"

// latHist is a fixed-size latency histogram safe for concurrent
// recording: 100 ns buckets up to 20 ms, 10 µs buckets up to 2 s, and a
// clamp bucket above. Quantiles interpolate inside their bucket, so a
// median carries all its digits instead of snapping to a bucket edge.
// Its size is fixed, so peak RSS does not grow with throughput.
type latHist struct {
	b [fineN + coarseN + 1]atomic.Uint32
}

const (
	fineNs   = 100
	fineN    = 200_000
	coarseNs = 10_000
	coarseN  = 198_000
	fineTop  = fineNs * fineN
)

func bucketOf(ns int64) int {
	switch {
	case ns < 0:
		return 0
	case ns < fineTop:
		return int(ns / fineNs)
	case ns < fineTop+coarseNs*coarseN:
		return fineN + int((ns-fineTop)/coarseNs)
	default:
		return fineN + coarseN
	}
}

func bucketRange(i int) (lo, width float64) {
	if i < fineN {
		return float64(i * fineNs), fineNs
	}
	return float64(fineTop + (i-fineN)*coarseNs), coarseNs
}

func (h *latHist) record(ns int64) { h.b[bucketOf(ns)].Add(1) }

// quantile returns the q-quantile in nanoseconds over the union of hs
// (0 when they are all empty).
func quantile(q float64, hs ...*latHist) float64 {
	var total uint64
	for i := range hs[0].b {
		for _, h := range hs {
			total += uint64(h.b[i].Load())
		}
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range hs[0].b {
		var c uint64
		for _, h := range hs {
			c += uint64(h.b[i].Load())
		}
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, _ := bucketRange(len(hs[0].b) - 1)
	return lo
}

func (h *latHist) reset() {
	for i := range h.b {
		h.b[i].Store(0)
	}
}

// latPair holds one period's latencies by kind.
type latPair struct{ r, w latHist }

func (p *latPair) reset() {
	p.r.reset()
	p.w.reset()
}
