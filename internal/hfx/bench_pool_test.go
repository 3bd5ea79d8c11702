package hfx

import (
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/linalg"
)

// BenchmarkBuildJKPooled measures the steady-state Fock build on the
// persistent pool. One warm-up build runs before the timer so lazily
// sized scratch buffers reach their final capacity; after that every
// BuildJK must reuse the pool's buffers — the benchmark's allocation
// report (b.ReportAllocs) is the regression guard and must show
// 0 allocs/op.
func BenchmarkBuildJKPooled(b *testing.B) {
	eng, scr := setup(b, chem.WaterCluster(4, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	builder := NewBuilder(eng, scr, DefaultOptions())
	defer builder.Close()
	builder.BuildJK(p) // warm-up: size scratch, create timer phases
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder.BuildJK(p)
	}
}

// BenchmarkBuildJKSemiDirect measures the warm-cache semi-direct build on
// the same system as BenchmarkBuildJKPooled: every surviving quartet is
// resident after the warm-up, so the timed builds replay cached ERI blocks
// and only re-contract against the density. Must stay 0 allocs/op and
// ≥2× below BenchmarkBuildJKPooled ns/op.
func BenchmarkBuildJKSemiDirect(b *testing.B) {
	eng, scr := setup(b, chem.WaterCluster(4, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	builder.BuildJK(p) // warm-up 1: fill the cache
	_, _, rep := builder.BuildJK(p)
	if rep.Cache.Misses != 0 {
		b.Fatalf("warm cache still misses %d quartets; raise the budget", rep.Cache.Misses)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rep = builder.BuildJK(p)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.QuartetsComputed), "quartets/op")
	b.ReportMetric(rep.Cache.HitRatio(), "hitratio")
}

// BenchmarkBuildJKIncrementalSemiDirect measures the ΔP build an
// incremental SCF issues on a warm cache: the small difference density
// screens away most quartets (density-weighted test) and the survivors
// replay from the cache.
func BenchmarkBuildJKIncrementalSemiDirect(b *testing.B) {
	eng, scr := setup(b, chem.WaterCluster(4, 1), 1e-8)
	n := eng.Basis.NBasis
	p := testDensity(n, 1)
	dp := testDensity(n, 2)
	for i := range dp.Data {
		dp.Data[i] *= 1e-4
	}
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	builder.BuildJK(p) // warm-up: fill the cache with the full-density survivors
	var rep Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rep = builder.BuildJK(dp)
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.QuartetsComputed), "quartets/op")
	b.ReportMetric(rep.Cache.HitRatio(), "hitratio")
}

// TestSemiDirectReplayAllocs guards the replay hot path: once the cache
// is warm, a semi-direct BuildJK must not allocate.
func TestSemiDirectReplayAllocs(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.CacheBudgetBytes = 256 << 20
	builder := NewBuilder(eng, scr, opts)
	defer builder.Close()
	builder.BuildJK(p)
	var rep Report
	allocs := testing.AllocsPerRun(10, func() {
		_, _, rep = builder.BuildJK(p)
	})
	if allocs != 0 {
		t.Fatalf("semi-direct replay allocates %.1f objects per call, want 0", allocs)
	}
	if rep.Cache.Misses != 0 || rep.Cache.Hits != rep.QuartetsComputed {
		t.Fatalf("replay not fully cached: hits=%d misses=%d computed=%d",
			rep.Cache.Hits, rep.Cache.Misses, rep.QuartetsComputed)
	}
}

// TestSteadyStateBuildAllocs is the in-suite form of the benchmark
// guard: after one warm-up, repeated BuildJK calls must not allocate —
// on the static plan and with dynamic dispatch over four units.
func TestSteadyStateBuildAllocs(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	dynamic := DefaultOptions()
	dynamic.Units, dynamic.Steal = 4, true
	for _, opts := range []Options{DefaultOptions(), dynamic} {
		builder := NewBuilder(eng, scr, opts)
		builder.BuildJK(p)
		var j, k *linalg.Matrix
		allocs := testing.AllocsPerRun(10, func() {
			j, k, _ = builder.BuildJK(p)
		})
		builder.Close()
		if allocs != 0 {
			t.Fatalf("units=%d steal=%v: steady-state BuildJK allocates %.1f objects per call, want 0",
				opts.Units, opts.Steal, allocs)
		}
		if j == nil || k == nil {
			t.Fatal("no result")
		}
	}
}
