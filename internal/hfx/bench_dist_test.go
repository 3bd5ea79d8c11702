package hfx

import (
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/mprt"
)

// benchDistBuild times the steady-state rank-distributed Fock build at a
// given rank count and collective schedule, reporting the per-build
// collective traffic and schedule steps alongside ns/op (one rank runs
// no collective, so R1 reads 0 steps). One warm-up build sizes every
// worker's scratch before the timer.
func benchDistBuild(b *testing.B, ranks int, sched mprt.Schedule) {
	eng, scr := setup(b, chem.WaterCluster(4, 1), 1e-8)
	p := testDensity(eng.Basis.NBasis, 1)
	opts := DefaultOptions()
	opts.Ranks, opts.Schedule = ranks, sched
	d := NewBuilder(eng, scr, opts)
	defer d.Close()
	_, _, rep := d.BuildJK(p) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, rep = d.BuildJK(p)
	}
	b.ReportMetric(float64(rep.Ranks.CommBytes), "commbytes/op")
	b.ReportMetric(float64(rep.Ranks.MeasuredSteps), "steps/op")
}

func BenchmarkDistBuildR1(b *testing.B) { benchDistBuild(b, 1, mprt.DimExchange) }
func BenchmarkDistBuildR2(b *testing.B) { benchDistBuild(b, 2, mprt.DimExchange) }
func BenchmarkDistBuildR4(b *testing.B) { benchDistBuild(b, 4, mprt.DimExchange) }
func BenchmarkDistBuildR8(b *testing.B) { benchDistBuild(b, 8, mprt.DimExchange) }

// BenchmarkDistBuildR4Binomial contrasts the binomial-tree schedule with
// the torus dimension-exchange at the same rank count.
func BenchmarkDistBuildR4Binomial(b *testing.B) { benchDistBuild(b, 4, mprt.Binomial) }
