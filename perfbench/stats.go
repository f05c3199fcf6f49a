package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles the tail rule chooses from.
var tailLadder = []float64{50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9}

// tailPercentile returns the highest percentile of tailLadder that
// leaves at least 10 of n samples beyond it, or 0 when n < 20 (not
// even the median has ten samples above it).
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate the ladder's rounding
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of sorted
// samples: the smallest value with at least p% of samples at or below
// it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailWindows is how many consecutive sub-windows latency_tail_ms is
// taken over.
const tailWindows = 10

// windowedPercentile splits lat, in completion order, into up to k
// consecutive parts of equal size, takes the p-th percentile of each
// and returns their median and the number of parts. A burst of host
// interference that spans fewer than half of the parts leaves it
// unchanged, where it raises the percentile of the whole run. It uses
// fewer parts when a part would keep fewer than five samples beyond
// its percentile, and the whole run's percentile when even one part
// would.
func windowedPercentile(lat []float64, p float64, k int) (float64, int) {
	k = min(k, int(float64(len(lat))*(100-p)/100/5))
	if k <= 1 {
		s := append([]float64(nil), lat...)
		sort.Float64s(s)
		return percentile(s, p), 1
	}
	parts := make([]float64, k)
	for j := range k {
		s := append([]float64(nil), lat[j*len(lat)/k:(j+1)*len(lat)/k]...)
		sort.Float64s(s)
		parts[j] = percentile(s, p)
	}
	return median(parts), k
}

// beyond counts the samples strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// virt is the virtual-time outcome, the deterministic work counts and
// a hash of the output of one op: a pure function of the op's input, so
// equal inputs must give equal virt values on every run, host and
// commit that claims only host speed.
type virt struct {
	T, Events, Reads, Writes, Delivered, Commits, Aborts, Ckpts, Spans int64
	E                                                                  float64
	Out                                                                uint64
}

// outHash is the FNV-1a hash of an op's output, as bytes.
func outHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// add sums the work counts of o into v.
func (v *virt) add(o virt) {
	v.Reads += o.Reads
	v.Writes += o.Writes
	v.Delivered += o.Delivered
	v.Commits += o.Commits
	v.Aborts += o.Aborts
	v.Ckpts += o.Ckpts
	v.Spans += o.Spans
}

// digest hashes the virtual statistics and output hash of every pool
// entry, in pool order. E is hashed by its exact bits.
func digest(pool []virt) string {
	h := sha256.New()
	for i, v := range pool {
		fmt.Fprintf(h, "%d T=%d E=%x ev=%d r=%d w=%d msg=%d c=%d a=%d ck=%d sp=%d out=%x\n", i,
			v.T, math.Float64bits(v.E), v.Events, v.Reads, v.Writes, v.Delivered,
			v.Commits, v.Aborts, v.Ckpts, v.Spans, v.Out)
	}
	return hex.EncodeToString(h.Sum(nil))
}
