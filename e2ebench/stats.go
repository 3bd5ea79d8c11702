package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile applies the reporting rule for a timing's tail: the
// highest whole percentile that still has at least ten of the n samples
// beyond it. ok is false when n leaves no such percentile.
func tailPercentile(n int) (pct int, ok bool) {
	if n <= 10 {
		return 0, false
	}
	// Samples beyond percentile p: n·(1 − p/100) ≥ 10.
	return 100 * (n - 10) / n, true
}

// clientCount caps the number of load clients at the CPU count, so the
// load generator never competes with the system for more CPUs than exist.
func clientCount(want, nproc int) int {
	return max(1, min(want, nproc))
}

// digest fingerprints a workload's generated inputs.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // inputs are plain data; a marshal failure is a bug
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
