// Package metrics collects serving statistics (throughput over time,
// request latencies) and the simulator's own component timing, and writes
// the artifact's TSV outputs (*-throughput.tsv, *-simulation-time.tsv).
// It also provides the error measures the paper validates with: mean
// absolute percentage error for throughput-trend comparison (Fig. 6) and
// geometric-mean error across configurations (Fig. 7).
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/simtime"
)

// Iteration records one completed serving iteration.
type Iteration struct {
	Start, End   simtime.Time
	PromptTokens int // prompt tokens processed (initiation work)
	GenTokens    int // output tokens produced (generation work)
	BatchSize    int
}

// Collector accumulates iteration records. End time and token totals
// are tracked as running scalars — integer sums, so they are exact and
// identical whether or not the per-iteration slice is retained — which
// is what lets Stream drop the slice without perturbing any report
// field derived from them.
type Collector struct {
	iters     []Iteration
	streaming bool

	end          simtime.Time
	promptTokens int64
	genTokens    int64
}

// AddIteration folds one iteration into the running totals and, unless
// the collector is streaming, retains the record for Buckets.
func (c *Collector) AddIteration(it Iteration) {
	c.end = it.End
	c.promptTokens += int64(it.PromptTokens)
	c.genTokens += int64(it.GenTokens)
	if !c.streaming {
		c.iters = append(c.iters, it)
	}
}

// Stream switches the collector to totals-only accumulation: End,
// token totals, and MeanThroughput stay exact, but per-iteration
// records are no longer retained — Iterations and Buckets return nil —
// so memory stays flat in the iteration count. Any records retained
// before the switch are dropped (their totals are already folded in).
func (c *Collector) Stream() {
	c.streaming = true
	c.iters = nil
}

// Iterations returns the recorded iterations (nil after Stream).
func (c *Collector) Iterations() []Iteration { return c.iters }

// End returns the simulated end time of the run: the End of the last
// iteration added.
func (c *Collector) End() simtime.Time { return c.end }

// TotalPromptTokens sums prompt tokens across the run.
func (c *Collector) TotalPromptTokens() int64 { return c.promptTokens }

// TotalGenTokens sums generated tokens across the run.
func (c *Collector) TotalGenTokens() int64 { return c.genTokens }

// MeanThroughput returns overall prompt and generation token rates in
// tokens/second over the whole run.
func (c *Collector) MeanThroughput() (prompt, gen float64) {
	end := c.End().Seconds()
	if end <= 0 {
		return 0, 0
	}
	return float64(c.TotalPromptTokens()) / end, float64(c.TotalGenTokens()) / end
}

// Bucket is one point of a throughput-over-time series (Fig. 6 rows).
type Bucket struct {
	Time      simtime.Time // bucket end
	PromptTPS float64
	GenTPS    float64
}

// Buckets bins iteration token counts into fixed windows; each iteration's
// tokens are attributed to the window containing its end time.
func (c *Collector) Buckets(width simtime.Duration) []Bucket {
	if width <= 0 || len(c.iters) == 0 {
		return nil
	}
	end := c.End()
	n := int(int64(end)/int64(width)) + 1
	out := make([]Bucket, n)
	for i := range out {
		out[i].Time = simtime.Time(int64(i+1) * int64(width))
	}
	for _, it := range c.iters {
		idx := int(int64(it.End) / int64(width))
		if idx >= n {
			idx = n - 1
		}
		out[idx].PromptTPS += float64(it.PromptTokens)
		out[idx].GenTPS += float64(it.GenTokens)
	}
	sec := width.Seconds()
	for i := range out {
		out[i].PromptTPS /= sec
		out[i].GenTPS /= sec
	}
	return out
}

// WriteThroughputTSV writes the artifact's *-throughput.tsv format.
func WriteThroughputTSV(w io.Writer, buckets []Bucket) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_s\tprompt_throughput_tps\tgen_throughput_tps"); err != nil {
		return err
	}
	for _, b := range buckets {
		if _, err := fmt.Fprintf(bw, "%.3f\t%.2f\t%.2f\n", b.Time.Seconds(), b.PromptTPS, b.GenTPS); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ComponentTimes is the host wall-clock breakdown of one simulation run
// across the four LLMServingSim components (the Fig. 9 stack). The
// per-iteration meters behind it (core.Simulator steps, the astra
// backend's phases) follow the StepSampler rule: exact for runs of at
// most 64 iterations, sampled estimates beyond that.
type ComponentTimes struct {
	Scheduler       time.Duration
	ExecutionEngine time.Duration
	GraphConverter  time.Duration
	AstraSim        time.Duration
}

// Total sums the component times.
func (c ComponentTimes) Total() time.Duration {
	return c.Scheduler + c.ExecutionEngine + c.GraphConverter + c.AstraSim
}

// Add accumulates another breakdown.
func (c *ComponentTimes) Add(o ComponentTimes) {
	c.Scheduler += o.Scheduler
	c.ExecutionEngine += o.ExecutionEngine
	c.GraphConverter += o.GraphConverter
	c.AstraSim += o.AstraSim
}

// scaled returns every component multiplied by n.
func (c ComponentTimes) scaled(n int64) ComponentTimes {
	k := time.Duration(n)
	return ComponentTimes{c.Scheduler * k, c.ExecutionEngine * k, c.GraphConverter * k, c.AstraSim * k}
}

// hostStride is the host-time sampling period: every step is timed
// while fewer than hostStride have run, then one step in hostStride.
// hostRotate is the odd step by which the timed position moves from one
// stride to the next.
const (
	hostStride = 64
	hostRotate = 39
)

// StepSampler is the host-time sampling rule shared by every
// per-iteration meter (SampledTimes, SampledDuration). Reading the clock
// around a step of an analytical backend costs more than the step
// itself, so only these steps are timed: all of the first 64, then one
// in each stride of 64. Stride k (the first 64 steps are stride 1)
// takes its sample at offset k·39 mod 64, so a heavy step that recurs
// at a fixed position cannot be sampled every time or never. The first
// 64 steps are added exactly; every step after them is priced at the
// sample taken in the stride before its own. Hence:
//   - a run of at most 64 steps is metered exactly;
//   - a run whose steps all cost the same is metered exactly;
//   - since 39 is odd, any 64 consecutive strides sample all 64
//     offsets once, so when step costs repeat with period 64 the
//     estimate is exact after 64 + 64·64 steps, and after every further
//     64·64;
//   - a step is priced when it is counted and never repriced, so
//     successive estimates never decrease.
//
// A meter is driven as
//
//	if !m.Sample() {
//		return step() // counted; no clock read
//	}
//	start := time.Now()
//	err := step()
//	m.Record(time.Since(start))
//
// Meters are allocation-free; their zero value is empty.
type StepSampler struct {
	steps int64 // untimed steps once sampled, timed ones once recorded
	next  int64 // the next step to time once the first 64 are counted
}

// sampleOffset returns the position of the timed step within stride q
// (0-based, so stride q+1 in the numbering above).
func sampleOffset(q int64) int64 { return (q + 1) * hostRotate % hostStride }

// Sample reports whether the next step is to be timed. An untimed step
// is counted here; a timed one must be passed to the meter's Record,
// which counts it.
func (s *StepSampler) Sample() bool {
	if s.steps < hostStride || s.steps == s.next {
		return true
	}
	s.steps++
	return false
}

// count counts a timed step and says how the meter takes it: exact
// (one of the first 64), and whether it is its stride's sample.
func (s *StepSampler) count() (exact, sample bool) {
	n := s.steps
	s.steps++
	if n >= hostStride-1 {
		q := n/hostStride + 1 // the next stride
		s.next = q*hostStride + sampleOffset(q)
	}
	return n < hostStride, n%hostStride == sampleOffset(n/hostStride)
}

// weights returns how many counted steps not yet in a meter's sum are
// priced at its price and at its banked sample. Once the current
// stride's sample is recorded, the previous stride is in the sum and
// the current stride's j steps are at the price. Before that, the
// previous stride's 64 steps are still at the price and the current
// stride's j at the banked sample.
func (s *StepSampler) weights() (price, banked int64) {
	if s.steps <= hostStride {
		return 0, 0
	}
	q, j := (s.steps-1)/hostStride, (s.steps-1)%hostStride+1
	if j > sampleOffset(q) {
		return j, 0
	}
	return hostStride, j
}

// SampledTimes meters a per-step ComponentTimes under the StepSampler
// rule.
type SampledTimes struct {
	StepSampler
	sum    ComponentTimes // the first 64 steps plus every folded stride
	price  ComponentTimes // the price of the latest sampled stride
	banked ComponentTimes // the latest sample: the next stride's price
}

// Record adds the host times of a step Sample chose to time.
func (m *SampledTimes) Record(d ComponentTimes) {
	exact, sample := m.count()
	if exact {
		m.sum.Add(d)
	} else {
		// The previous stride is whole: fold it at its price.
		m.sum.Add(m.price.scaled(hostStride))
		m.price = m.banked
	}
	if sample {
		m.banked = d
	}
}

// Times returns the estimated host times of the steps counted so far.
func (m *SampledTimes) Times() ComponentTimes {
	t := m.sum
	p, b := m.weights()
	t.Add(m.price.scaled(p))
	t.Add(m.banked.scaled(b))
	return t
}

// SampledDuration meters a per-step duration under the StepSampler
// rule.
type SampledDuration struct {
	StepSampler
	sum, price, banked time.Duration // as in SampledTimes
}

// Record adds the host time of a step Sample chose to time.
func (m *SampledDuration) Record(d time.Duration) {
	exact, sample := m.count()
	if exact {
		m.sum += d
	} else {
		m.sum += m.price * hostStride
		m.price = m.banked
	}
	if sample {
		m.banked = d
	}
}

// Time returns the estimated host time of the steps counted so far.
func (m *SampledDuration) Time() time.Duration {
	p, b := m.weights()
	return m.sum + m.price*time.Duration(p) + m.banked*time.Duration(b)
}

// WriteSimulationTimeTSV writes the artifact's *-simulation-time.tsv
// format (per-component milliseconds).
func WriteSimulationTimeTSV(w io.Writer, c ComponentTimes) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "component\ttime_ms"); err != nil {
		return err
	}
	rows := []struct {
		name string
		d    time.Duration
	}{
		{"scheduler", c.Scheduler},
		{"execution_engine", c.ExecutionEngine},
		{"graph_converter", c.GraphConverter},
		{"astra_sim", c.AstraSim},
		{"total", c.Total()},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(bw, "%s\t%.3f\n", r.name, float64(r.d)/float64(time.Millisecond)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MeanAbsPctError compares two aligned series as the paper's validation
// does: mean of |a-b| / max(b, floor) over points where the reference b is
// active. floor guards division blow-ups in idle windows.
func MeanAbsPctError(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var ref float64
	for i := 0; i < n; i++ {
		if b[i] > ref {
			ref = b[i]
		}
	}
	floor := ref * 0.05 // ignore near-idle reference windows
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		if b[i] <= floor {
			continue
		}
		sum += math.Abs(a[i]-b[i]) / b[i]
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// GeomeanError returns the geometric mean of |a-b|/b across configuration
// pairs, the Fig. 7 summary statistic (8.88% in the paper).
func GeomeanError(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var logSum float64
	var cnt int
	for i := 0; i < n; i++ {
		if b[i] == 0 {
			continue
		}
		e := math.Abs(a[i]-b[i]) / b[i]
		if e == 0 {
			e = 1e-9 // avoid log(0); an exact match contributes ~zero error
		}
		logSum += math.Log(e)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return math.Exp(logSum / float64(cnt))
}

// LatencyStats summarises request completion latencies.
type LatencyStats struct {
	Count                           int
	MeanSec, P50Sec, P95Sec, P99Sec float64
	MeanTTFTSec                     float64 // time to first token
	MeanTPOTSec                     float64 // time per output token after the first
}

// LatencySample is one completed request's timing, the input to Latency.
type LatencySample struct {
	Arrival, FirstToken, Completed simtime.Time
	OutputTokens                   int
}

// TPOT returns the sample's time per output token: the generation span
// (completion minus first token) divided over the tokens after the
// first. Single-token outputs have no inter-token gap and report zero.
func (s LatencySample) TPOT() simtime.Duration {
	if s.OutputTokens <= 1 {
		return 0
	}
	return s.Completed.Sub(s.FirstToken) / simtime.Duration(s.OutputTokens-1)
}

// Latency computes end-to-end latency statistics over completed
// requests. Percentiles use the nearest-rank definition (see
// PercentileSorted). Mean TPOT averages over samples with more than one
// output token.
func Latency(samples []LatencySample) LatencyStats {
	n := len(samples)
	if n == 0 {
		return LatencyStats{}
	}
	lat := make([]float64, n)
	var sum, ttft, tpot float64
	tpotN := 0
	for i, s := range samples {
		lat[i] = s.Completed.Sub(s.Arrival).Seconds()
		sum += lat[i]
		ttft += s.FirstToken.Sub(s.Arrival).Seconds()
		if s.OutputTokens > 1 {
			tpot += s.TPOT().Seconds()
			tpotN++
		}
	}
	sort.Float64s(lat)
	stats := LatencyStats{
		Count:       n,
		MeanSec:     sum / float64(n),
		P50Sec:      PercentileSorted(lat, 0.50),
		P95Sec:      PercentileSorted(lat, 0.95),
		P99Sec:      PercentileSorted(lat, 0.99),
		MeanTTFTSec: ttft / float64(n),
	}
	if tpotN > 0 {
		stats.MeanTPOTSec = tpot / float64(tpotN)
	}
	return stats
}

// PercentileSorted returns the p-th percentile (0 < p <= 1) of an
// ascending-sorted slice using the standard nearest-rank definition:
// the value at 1-based rank ceil(p*n). An empty slice yields zero.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
