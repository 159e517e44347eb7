package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p95 needs at least 200 samples, a p50 at least 20.
const minTail = 10

// windowSize is the fewest accesses a latency window holds: enough for a
// p95 with minTail samples beyond it.
const windowSize = 200

// windowedMedian splits xs, in time order, into the most consecutive
// windows of at least windowSize samples (one window when there are
// fewer) and returns the median over windows of f. A slow spell on the
// host then moves only the windows it covers, not the reported value.
func windowedMedian(xs []access, f func([]access) float64) float64 {
	k := max(1, len(xs)/windowSize)
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		vals = append(vals, f(xs[i*len(xs)/k:(i+1)*len(xs)/k]))
	}
	return median(vals)
}

// rankOf is the 1-based nearest rank of quantile q in a sample of n:
// the smallest rank whose share of the sample at or below it is >= q.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCount is how many of n samples lie beyond the q-quantile's rank.
func tailCount(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, q)
}

// supported reports whether a sample of n supports quantile q, that is
// has at least minTail samples beyond it.
func supported(n int, q float64) bool { return tailCount(n, q) >= minTail }

// nearestRank returns the q-quantile of xs by nearest rank (0 when xs is
// empty). xs is not modified.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

// ratio divides num by base, reading 0 when the base is empty. Every
// ratio the benchmark reports goes through here, so a zero base never
// produces NaN or Inf in the JSON output.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// deriveSeed maps the run seed, a named input stream and an index to an
// independent seed (splitmix64 finaliser over an FNV hash of the name),
// so adding a stream never shifts the seeds of the others.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash.Hash writes never fail
	z := uint64(seed) ^ h.Sum64() ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// median returns the middle value of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
