package hfx

import (
	"fmt"
	"strings"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
)

// The bitwise pins of the one Fock-build pipeline. Some test names still
// carry the builder types the pipeline replaced (DistBuilder,
// StealBuilder); they are kept so test IDs stay stable across history.

// pinCase is one row of the pipeline's configuration table: how the
// slots are split over ranks, threads and units, which collective
// schedule runs, whether stealing is on and what noise distorts the
// placement model.
type pinCase struct {
	ranks, threads, units int
	sched                 mprt.Schedule
	steal                 bool
	noise                 *steal.NoisePlan
}

func (c pinCase) String() string {
	return fmt.Sprintf("ranks=%d threads=%d units=%d %v steal=%v noise=%v",
		c.ranks, c.threads, c.units, c.sched, c.steal, c.noise != nil)
}

func (c pinCase) slots() int { return c.ranks * c.threads * c.units }

// options returns base with the case's pipeline fields set.
func (c pinCase) options(base Options) Options {
	base.Ranks, base.Threads, base.Units = c.ranks, c.threads, c.units
	base.Schedule, base.Steal, base.Noise, base.Seed = c.sched, c.steal, c.noise, 7
	return base
}

// build runs one fresh build and returns copies of J and K.
func build(eng *integrals.Engine, scr *screen.Result, opts Options, p *linalg.Matrix) (j, k []float64, rep Report) {
	b := NewBuilder(eng, scr, opts)
	defer b.Close()
	jm, km, rep := b.BuildJK(p)
	return append([]float64(nil), jm.Data...), append([]float64(nil), km.Data...), rep
}

// requireBitwise fails unless J and K equal the reference bit for bit.
func requireBitwise(t *testing.T, what string, j, k, jRef, kRef []float64) {
	t.Helper()
	for i := range jRef {
		if j[i] != jRef[i] {
			t.Fatalf("%s: J[%d] = %x, reference %x", what, i, j[i], jRef[i])
		}
		if k[i] != kRef[i] {
			t.Fatalf("%s: K[%d] = %x, reference %x", what, i, k[i], kRef[i])
		}
	}
}

// pinAgainstSingleRank runs every case and requires its J and K to equal
// — every bit — a static single-rank build with Threads = the case's
// slot count, and its measured collective steps to match the model.
func pinAgainstSingleRank(t *testing.T, eng *integrals.Engine, scr *screen.Result,
	base Options, p *linalg.Matrix, cases []pinCase) {
	t.Helper()
	refs := map[int][2][]float64{}
	for _, c := range cases {
		ref, ok := refs[c.slots()]
		if !ok {
			single := base
			single.Threads = c.slots()
			ref[0], ref[1], _ = build(eng, scr, single, p)
			refs[c.slots()] = ref
		}
		j, k, rep := build(eng, scr, c.options(base), p)
		requireBitwise(t, c.String(), j, k, ref[0], ref[1])
		rr := rep.Ranks
		if rep.QuartetsComputed == 0 {
			t.Fatalf("%v: no quartets computed", c)
		}
		if c.ranks > 1 && rr.CommBytes == 0 {
			t.Fatalf("%v: no communication recorded", c)
		}
		if rr.MeasuredSteps != int64(rr.PredictedSteps) {
			t.Fatalf("%v: measured steps %d, model predicts %d", c, rr.MeasuredSteps, rr.PredictedSteps)
		}
	}
}

// TestDistributedBuildMatchesSingleRank is the acceptance gate for the
// distributed build: for every rank count, thread count and collective
// schedule, J and K must be bitwise identical — not approximately equal
// — to a single-rank build with the same total slot count.
func TestDistributedBuildMatchesSingleRank(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	var cases []pinCase
	for _, tpr := range []int{1, 2} {
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			for _, sch := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
				cases = append(cases, pinCase{ranks: ranks, threads: tpr, units: 1, sched: sch})
			}
		}
	}
	for _, dw := range []bool{false, true} {
		base := DefaultOptions()
		base.DensityWeighted = dw
		pinAgainstSingleRank(t, eng, scr, base, p, cases)
	}
}

// TestStealBuildMatchesSingleRankBitwise extends the gate to
// over-decomposed placements: with a clean cost model, a build over
// Ranks×Threads×Units slots is bitwise identical to the single-rank
// static build with that many threads, with stealing on and off.
func TestStealBuildMatchesSingleRankBitwise(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	var cases []pinCase
	for _, tpr := range []int{1, 2} {
		for _, ranks := range []int{1, 2, 3, 4, 8} {
			for _, sch := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
				for _, stealing := range []bool{false, true} {
					cases = append(cases, pinCase{ranks: ranks, threads: tpr, units: 2, sched: sch, steal: stealing})
				}
			}
		}
	}
	pinAgainstSingleRank(t, eng, scr, DefaultOptions(), p, cases)
}

// TestStealBuildNoisyPinnedAcrossRankCounts pins the determinism
// contract under adversarial conditions: with injected cost-model noise,
// per-class skew and a straggler rank, every decomposition of the same
// total slot count — any rank count, thread count, schedule, stealing on
// or off — must produce identical bits, because the noise perturbs only
// the placement model (per task index, rank-count-independent) and the
// reduction order is canonical over slots.
func TestStealBuildNoisyPinnedAcrossRankCounts(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 3)
	noise := &steal.NoisePlan{
		Seed:          99,
		Pct:           0.3,
		ClassSkew:     map[int]float64{0: 0.4},
		StragglerRank: 1,
		StragglerSlow: 1.0,
	}
	requireAllEqual := func(cases []pinCase) {
		t.Helper()
		var jPin, kPin []float64
		for _, c := range cases {
			j, k, _ := build(eng, scr, c.options(DefaultOptions()), p)
			if jPin == nil {
				jPin, kPin = j, k
				continue
			}
			requireBitwise(t, c.String(), j, k, jPin, kPin)
		}
	}
	// (ranks, threads, units) with 16 slots each.
	var cases []pinCase
	for _, cfg := range [][3]int{{1, 2, 8}, {2, 2, 4}, {2, 1, 8}, {4, 1, 4}, {4, 2, 2}, {8, 2, 1}} {
		for _, sch := range []mprt.Schedule{mprt.Binomial, mprt.DimExchange} {
			for _, stealing := range []bool{false, true} {
				cases = append(cases, pinCase{cfg[0], cfg[1], cfg[2], sch, stealing, noise})
			}
		}
	}
	requireAllEqual(cases)
	// Non-power-of-two rank count with a different slot total: steal and
	// static arms of the same noisy plan must still agree bit for bit.
	requireAllEqual([]pinCase{
		{ranks: 3, threads: 2, units: 4, noise: noise},
		{ranks: 3, threads: 2, units: 4, steal: true, noise: noise},
	})
}

// requireStableRebuilds runs builds successive builds on b and requires
// every one to reproduce the first's bits and collective traffic.
func requireStableRebuilds(t *testing.T, b *Builder, p *linalg.Matrix, builds int) Report {
	t.Helper()
	j1, k1, rep1 := b.BuildJK(p)
	jc := append([]float64(nil), j1.Data...)
	kc := append([]float64(nil), k1.Data...)
	steps, bytes := rep1.Ranks.MeasuredSteps, rep1.Ranks.CommBytes
	for build := 2; build <= builds; build++ {
		j, k, rep := b.BuildJK(p)
		requireBitwise(t, fmt.Sprintf("build %d", build), j.Data, k.Data, jc, kc)
		if rep.Ranks.MeasuredSteps != steps {
			t.Fatalf("build %d: %d collective steps, build 1 ran %d", build, rep.Ranks.MeasuredSteps, steps)
		}
		if !b.Opts.Steal && rep.Ranks.CommBytes != bytes {
			t.Fatalf("build %d: %d comm bytes, build 1 moved %d", build, rep.Ranks.CommBytes, bytes)
		}
	}
	return rep1
}

// TestDistBuilderReuse checks the persistent multi-rank form: repeated
// BuildJK calls on one builder stay bitwise stable and keep traffic
// accounting consistent across builds.
func TestDistBuilderReuse(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 5)
	b := NewBuilder(eng, scr, pinCase{ranks: 4, threads: 1, units: 1, sched: mprt.DimExchange}.options(DefaultOptions()))
	defer b.Close()
	rep := requireStableRebuilds(t, b, p, 2)
	if len(rep.Ranks.Loads) != 4 {
		t.Fatalf("want 4 rank loads, got %d", len(rep.Ranks.Loads))
	}
	if rep.BalanceRatio < 1 {
		t.Fatalf("balance ratio %g < 1", rep.BalanceRatio)
	}
}

// TestStealBuildReuseStableAcrossStealPatterns pins what makes the
// determinism structural: repeated builds on one stealing builder take
// timing-dependent (and therefore different) steal decisions, yet every
// build must produce the same bits.
func TestStealBuildReuseStableAcrossStealPatterns(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 5)
	b := NewBuilder(eng, scr, pinCase{ranks: 4, threads: 1, units: 4, sched: mprt.DimExchange, steal: true}.options(DefaultOptions()))
	defer b.Close()
	requireStableRebuilds(t, b, p, 4)
}

// rejectCase is one option set and whether NewBuilder must refuse it.
type rejectCase struct {
	opts  Options
	panic bool
}

// requireRejects pins the one invalid configuration left: with
// Ranks > 1, Threads×Units must be a power of two, or the in-rank
// reduction trees would not line up with the cross-rank tree. NewBuilder
// panics and names the fields; everything else is accepted.
func requireRejects(t *testing.T, cases []rejectCase) {
	t.Helper()
	eng, scr := setup(t, chem.Water(), 1e-12)
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if (r != nil) != tc.panic {
					t.Fatalf("%+v: panic %v, want panic=%v", tc.opts, r, tc.panic)
				}
				if msg := fmt.Sprint(r); r != nil && !(strings.Contains(msg, "Threads") && strings.Contains(msg, "Units")) {
					t.Fatalf("%+v: panic %q does not name Threads and Units", tc.opts, msg)
				}
			}()
			NewBuilder(eng, scr, tc.opts).Close()
		}()
	}
}

// TestDistBuilderRejectsInvalid pins the validation of static multi-rank
// placement: a non-power-of-two thread count per rank breaks the bitwise
// contract and is refused up front; zero ranks means one rank.
func TestDistBuilderRejectsInvalid(t *testing.T) {
	requireRejects(t, []rejectCase{
		{Options{Ranks: 2, Threads: 3}, true},
		{Options{Ranks: 4, Threads: 6}, true},
		{Options{Ranks: 2, Threads: 2}, false},
		{Options{Ranks: 1, Threads: 3}, false},
		{Options{Ranks: 0, Units: 0}, false},
	})
}

// TestStealBuilderRejectsInvalid pins the validation of multi-rank
// stealing over steal units: Threads×Units per rank must be a power of
// two, whichever of the two makes it odd; one rank accepts any split.
func TestStealBuilderRejectsInvalid(t *testing.T) {
	requireRejects(t, []rejectCase{
		{Options{Ranks: 2, Threads: 3, Steal: true}, true},
		{Options{Ranks: 2, Units: 6, Steal: true}, true},
		{Options{Ranks: 4, Threads: 2, Units: 3, Steal: true}, true},
		{Options{Ranks: 2, Threads: 2, Units: 4, Steal: true}, false},
		{Options{Ranks: 1, Threads: 3, Units: 3, Steal: true}, false},
	})
}

// TestDistBuilderRankFaultRecovery pins the rank-restart contract: a
// rank killed during the compute phase has its units re-executed and the
// reduction runs with every rank alive, and the recovered build is
// bitwise identical — every bit of J and K — to the fault-free one. Each
// rank is killed in turn, across both collective schedules, with static
// placement and with stealing over four units per rank.
func TestDistBuilderRankFaultRecovery(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	const ranks = 4
	for _, c := range []pinCase{
		{ranks: ranks, threads: 1, units: 1, sched: mprt.Binomial},
		{ranks: ranks, threads: 1, units: 1, sched: mprt.DimExchange},
		{ranks: ranks, threads: 1, units: 4, sched: mprt.DimExchange, steal: true},
	} {
		jc, kc, repRef := build(eng, scr, c.options(DefaultOptions()), p)
		if repRef.Ranks.Restarts != 0 {
			t.Fatalf("%v: fault-free build reports %d restarts", c, repRef.Ranks.Restarts)
		}
		for victim := 0; victim < ranks; victim++ {
			opts := c.options(DefaultOptions())
			opts.FaultPlan = &RankFaultPlan{Rank: victim, Build: 2}
			b := NewBuilder(eng, scr, opts)
			// Build 1 is clean; the fault plan fires on build 2.
			if _, _, rep := b.BuildJK(p); rep.Ranks.Restarts != 0 {
				t.Fatalf("%v: build 1 should be clean, got %d restarts", c, rep.Ranks.Restarts)
			}
			j, k, rep := b.BuildJK(p)
			if rep.Ranks.Restarts != 1 {
				t.Fatalf("%v victim %d: want 1 restart, got %d", c, victim, rep.Ranks.Restarts)
			}
			requireBitwise(t, fmt.Sprintf("%v victim %d", c, victim), j.Data, k.Data, jc, kc)
			if rep.Ranks.MeasuredSteps != repRef.Ranks.MeasuredSteps {
				t.Fatalf("%v victim %d: collective ran %d steps, fault-free %d",
					c, victim, rep.Ranks.MeasuredSteps, repRef.Ranks.MeasuredSteps)
			}
			if got := rep.Metrics.Counter("mprt.rank_restarts").Value(); got != 1 {
				t.Fatalf("mprt.rank_restarts counter = %d, want 1", got)
			}
			b.Close()
		}
	}
}

// TestDistReportBalanceRatiosDivergeUnderNoise is the regression test
// for the predicted/measured balance split: with an injected straggler
// the measured ratio must rise far above the predicted one, while a
// clean run keeps BalanceRatio on the predicted (placement) meaning.
func TestDistReportBalanceRatiosDivergeUnderNoise(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)

	_, _, clean := build(eng, scr, pinCase{ranks: 4, threads: 1, units: 1}.options(DefaultOptions()), p)
	if clean.BalanceRatio != clean.Ranks.BalancePredicted {
		t.Fatalf("BalanceRatio %.4f must keep the predicted meaning (%.4f)",
			clean.BalanceRatio, clean.Ranks.BalancePredicted)
	}
	if clean.Ranks.BalanceMeasured <= 0 {
		t.Fatal("measured balance ratio not populated")
	}

	noise := &steal.NoisePlan{Seed: 9, Pct: 0.3, StragglerRank: 1, StragglerSlow: 4.0}
	_, _, noisy := build(eng, scr, pinCase{ranks: 4, threads: 1, units: 1, noise: noise}.options(DefaultOptions()), p)
	// The placement model cannot see the straggler, so the predicted
	// ratio stays modest while the measured one blows up.
	if noisy.Ranks.BalancePredicted > 2 {
		t.Fatalf("predicted ratio %.4f should stay blind to the straggler", noisy.Ranks.BalancePredicted)
	}
	if noisy.Ranks.BalanceMeasured < 1.5*noisy.Ranks.BalancePredicted {
		t.Fatalf("measured ratio %.4f did not diverge from predicted %.4f under noise",
			noisy.Ranks.BalanceMeasured, noisy.Ranks.BalancePredicted)
	}
}

// TestStealRecoversBalanceUnderStraggler is the load-recovery gate: with
// a straggler rank and mispredicted costs, the static placement's
// measured balance degrades (the predicted ratio stays blind to it)
// while stealing pulls work off the slow rank and recovers it.
func TestStealRecoversBalanceUnderStraggler(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	noise := &steal.NoisePlan{Seed: 5, Pct: 0.3, StragglerRank: 2, StragglerSlow: 4.0}
	run := func(stealing bool) *RankReport {
		_, _, rep := build(eng, scr, pinCase{ranks: 4, threads: 1, units: 4, steal: stealing, noise: noise}.options(DefaultOptions()), p)
		return rep.Ranks
	}
	static := run(false)
	stolen := run(true)
	if static.Migrated != 0 {
		t.Fatalf("static run migrated %d blocks", static.Migrated)
	}
	if stolen.Migrated == 0 || stolen.StealsSucceeded == 0 {
		t.Fatalf("stealing run migrated %d blocks (%d successful steals)",
			stolen.Migrated, stolen.StealsSucceeded)
	}
	if stolen.IdleReclaimed <= 0 {
		t.Fatal("no idle wall reclaimed by stealing")
	}
	// The straggler runs 5x slow; static-only measured imbalance must be
	// far above the predicted ratio, and stealing must claw most of it
	// back. The 10% margin keeps the gate robust on noisy CI walls.
	if static.BalanceMeasured < 1.5 {
		t.Fatalf("straggler did not degrade static measured balance: %.3f", static.BalanceMeasured)
	}
	if stolen.BalanceMeasured > 0.9*static.BalanceMeasured {
		t.Fatalf("stealing did not recover balance: static %.3f, steal %.3f",
			static.BalanceMeasured, stolen.BalanceMeasured)
	}
}

// TestStealBuilderCalibrationReducesError drives the online feedback
// loop: successive builds observe measured walls, the calibrator's
// per-class factors converge, and the mean predicted-vs-measured error
// drops. With Steal on, the placement must also be recomputed once the
// epoch moves.
func TestStealBuilderCalibrationReducesError(t *testing.T) {
	eng, scr := setup(t, chem.WaterCluster(2, 6), 1e-12)
	p := testDensity(eng.Basis.NBasis, 11)
	opts := pinCase{ranks: 2, threads: 1, units: 4, steal: true}.options(DefaultOptions())
	opts.Calibrator = steal.NewCalibrator(0.5)
	b := NewBuilder(eng, scr, opts)
	defer b.Close()

	var first, last RankReport
	for build := 0; build < 4; build++ {
		_, _, rep := b.BuildJK(p)
		if build == 0 {
			first = *rep.Ranks
			if first.Rebalanced {
				t.Fatal("first build claims a re-balance")
			}
		} else if !rep.Ranks.Rebalanced {
			t.Fatalf("build %d did not re-balance after calibration moved", build+1)
		}
		last = *rep.Ranks
	}
	if first.CalibObservations == 0 {
		t.Fatal("calibrator saw no observations")
	}
	if last.CalibObservations <= first.CalibObservations {
		t.Fatal("observations did not accumulate across builds")
	}
	// The calibrated model of the final build must beat the raw cost
	// model on the same samples: scheduling jitter hits both error
	// series identically, so the gap is exactly the systematic bias the
	// calibration learned away.
	if last.CalibErr >= last.CalibRawErr {
		t.Fatalf("calibration did not reduce prediction error: calibrated %.4f, raw %.4f",
			last.CalibErr, last.CalibRawErr)
	}
}

// TestCalibratorObservesWithoutReplacingStaticPlacement pins the other
// half of the calibrator contract: with Steal off the calibrator still
// observes every task, but placement stays fixed and the bits match from
// build to build.
func TestCalibratorObservesWithoutReplacingStaticPlacement(t *testing.T) {
	eng, scr := setup(t, chem.Water(), 1e-12)
	p := testDensity(eng.Basis.NBasis, 5)
	opts := DefaultOptions()
	opts.Threads = 4
	opts.Calibrator = steal.NewCalibrator(0.5)
	b := NewBuilder(eng, scr, opts)
	defer b.Close()
	requireStableRebuilds(t, b, p, 3)
	_, _, rep := b.BuildJK(p)
	if rep.Ranks.Rebalanced || rep.Ranks.CalibObservations == 0 {
		t.Fatalf("static build: rebalanced=%v observations=%d, want false/>0",
			rep.Ranks.Rebalanced, rep.Ranks.CalibObservations)
	}
}
