// This file holds the online quantile sketch behind streaming-metrics
// cluster runs: a fixed-bucket log-spaced histogram over durations
// (HDR-histogram style) whose memory is constant in the number of
// observations. Golden and default runs keep the exact nearest-rank
// path (NewDist); the sketch serves million-request runs where
// retaining per-request samples is the memory bottleneck.

package metrics

import (
	"math"
	"math/bits"

	"repro/internal/simtime"
)

// Sketch bucket geometry. Buckets are log-spaced with growth factor
// sketchGamma starting at 1ns (simulated time is int64 picoseconds, so
// sub-nanosecond latencies are already below any resolution the
// simulator reports): bucket i >= 1 covers [minPs·γ^(i-1), minPs·γ^i),
// and a quantile is reported as the geometric midpoint of its bucket,
// so the worst-case relative error versus the exact nearest-rank value
// is √γ−1 ≈ 2% (≈2.5% allowing for boundary rounding). Bucket 0 absorbs
// values below 1ns (including zeros) and reports 0.
const (
	sketchGamma = 1.04
	sketchMinPs = 1_000 // 1ns in picoseconds
)

var (
	sketchInvLnGamma = 1 / math.Log(sketchGamma)
	// sketchBuckets spans 1ns..~106 days (the int64 picosecond range);
	// anything beyond clamps into the last bucket.
	sketchBuckets = 2 + int(math.Ceil(math.Log(float64(math.MaxInt64)/sketchMinPs)*sketchInvLnGamma))
)

// SketchRelError is the documented worst-case relative error of a
// sketch quantile versus the exact nearest-rank value.
const SketchRelError = 0.025

// Sketch is an online duration-quantile sketch with constant memory
// (~7.5 KiB) in the number of observations.
type Sketch struct {
	counts []uint64
	count  uint64
	// 128-bit sum of observed picoseconds: the mean stays exact even
	// when quantiles are approximate.
	sumHi, sumLo uint64
}

// sketchIndex maps a duration to its bucket.
func sketchIndex(d simtime.Duration) int {
	if d < sketchMinPs {
		return 0
	}
	i := 1 + int(math.Log(float64(d)/sketchMinPs)*sketchInvLnGamma)
	if i >= sketchBuckets {
		i = sketchBuckets - 1
	}
	return i
}

// sketchValueSec returns the representative value (seconds) reported
// for a bucket: the geometric midpoint of its range.
func sketchValueSec(i int) float64 {
	if i == 0 {
		return 0
	}
	lo := sketchMinPs * math.Pow(sketchGamma, float64(i-1))
	return lo * math.Sqrt(sketchGamma) / float64(simtime.Second)
}

// Add records one observation. Negative durations count as zero.
func (s *Sketch) Add(d simtime.Duration) {
	if s.counts == nil {
		s.counts = make([]uint64, sketchBuckets)
	}
	if d < 0 {
		d = 0
	}
	s.counts[sketchIndex(d)]++
	s.count++
	var carry uint64
	s.sumLo, carry = bits.Add64(s.sumLo, uint64(d), 0)
	s.sumHi += carry
}

// Count returns the number of observations.
func (s *Sketch) Count() int { return int(s.count) }

// MeanSec returns the exact mean in seconds (the sum is tracked in
// 128-bit integer picoseconds, so no precision is lost to sketching).
func (s *Sketch) MeanSec() float64 {
	if s.count == 0 {
		return 0
	}
	sum := float64(s.sumHi)*math.Pow(2, 64) + float64(s.sumLo)
	return sum / float64(s.count) / float64(simtime.Second)
}

// QuantileSec returns the p-quantile in seconds by a nearest-rank walk
// over the cumulative bucket counts, within SketchRelError of the exact
// nearest-rank value.
func (s *Sketch) QuantileSec(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			return sketchValueSec(i)
		}
	}
	return sketchValueSec(sketchBuckets - 1)
}

// Dist summarises the sketch in the exact-path Dist shape: exact mean,
// sketched P50/P95/P99.
func (s *Sketch) Dist() Dist {
	if s.count == 0 {
		return Dist{}
	}
	return Dist{
		MeanSec: s.MeanSec(),
		P50Sec:  s.QuantileSec(0.50),
		P95Sec:  s.QuantileSec(0.95),
		P99Sec:  s.QuantileSec(0.99),
	}
}
