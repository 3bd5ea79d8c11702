package main

import (
	"time"

	"hfxmd"
)

// runSCF runs one SCF through the root API inside an "scf.run" span. On a
// traced pass every iteration after the first becomes an "scf.iter" span
// delimited by consecutive OnIteration callbacks, and the walls of those
// iterations are returned; the first callback has no opening bound, so the
// SCF's own set-up and first iteration stay in scf.run's self time.
func runSCF(rec *recorder, parent int, mol *hfxmd.Molecule, cfg hfxmd.SCFConfig) (*hfxmd.SCFResult, time.Duration, []time.Duration, error) {
	id := rec.begin(parent, "scf.run")
	var iters []time.Duration
	if rec != nil {
		var last time.Time
		cfg.OnIteration = func(int, float64, float64) {
			now := time.Now()
			if !last.IsZero() {
				rec.add(id, "scf.iter", last, now)
				iters = append(iters, now.Sub(last))
			}
			last = now
		}
	}
	t0 := time.Now()
	res, err := hfxmd.RunSCF(mol, cfg)
	wall := time.Since(t0)
	rec.end(id)
	return res, wall, iters, err
}

// Set-up repeats at least setupMinReps times and until setupBudget has
// passed, at most setupMaxReps times; setup_s is the median.
const (
	setupMinReps = 5
	setupMaxReps = 25
	setupBudget  = time.Second
)

// measureSetup times the prepare calls of a system repeatedly, closing
// each builder, and returns the total set-up wall of every repetition.
func measureSetup(p *pass, mol *hfxmd.Molecule, cfg hfxmd.SCFConfig) ([]time.Duration, error) {
	id := p.rec.begin(p.root, "bench.setup")
	defer p.rec.end(id)
	var walls []time.Duration
	start := time.Now()
	for len(walls) < setupMinReps || (len(walls) < setupMaxReps && time.Since(start) < setupBudget) {
		prep, t, err := prepare(p.rec, id, mol, cfg)
		if err != nil {
			return nil, err
		}
		prep.b.Close()
		walls = append(walls, t.total())
	}
	return walls, nil
}

// probeInput is a converged SCF of a workload, the input of the layer
// probes.
type probeInput struct {
	mol       *hfxmd.Molecule
	cfg       hfxmd.SCFConfig
	res       *hfxmd.SCFResult
	wall      time.Duration   // the SCF's wall
	iterWalls []time.Duration // its delimited iterations
}

// probeReps is how often each probed call repeats; metrics are medians.
const probeReps = 3

// probeLayers times every in-process layer on the workload's own inputs:
// the set-up calls, one SCF iteration's calls on the converged density,
// and an ERI sweep over the surviving quartets. It also attributes the
// SCF's wall to those layers; what they do not explain is reported as
// scf.unattributed_frac (DIIS, commutators, Fock assembly, density build).
func probeLayers(p *pass, in probeInput) (map[string]float64, error) {
	id := p.rec.begin(p.root, "bench.probe")
	defer p.rec.end(id)
	var setups []setupTimes
	var prep *prepared
	for i := 0; i < probeReps; i++ {
		pr, t, err := prepare(p.rec, id, in.mol, in.cfg)
		if err != nil {
			return nil, err
		}
		if prep != nil {
			prep.b.Close()
		}
		prep, setups = pr, append(setups, t)
	}
	defer prep.b.Close()
	var its []iterationProbe
	for i := 0; i < probeReps; i++ {
		its = append(its, probeIteration(p.rec, id, prep, in.cfg.Functional, in.res.P))
	}
	sweep, quartets, prims := eriSweep(p.rec, id, prep)

	setupS := func(f func(setupTimes) time.Duration) float64 {
		ds := make([]time.Duration, len(setups))
		for i, t := range setups {
			ds[i] = f(t)
		}
		return median(seconds(ds))
	}
	iterS := func(f func(iterationProbe) time.Duration) float64 {
		ds := make([]time.Duration, len(its))
		for i, it := range its {
			ds[i] = f(it)
		}
		return median(seconds(ds))
	}
	last := its[len(its)-1]
	kept, survival := pairSurvival(prep)
	m := map[string]float64{
		"basis.build_s":                setupS(func(t setupTimes) time.Duration { return t.basis }),
		"integrals.onee_s":             setupS(func(t setupTimes) time.Duration { return t.onee }),
		"screen.pairlist_s":            setupS(func(t setupTimes) time.Duration { return t.pairlist }),
		"hfx.prepare_s":                setupS(func(t setupTimes) time.Duration { return t.builder }),
		"dft.grid_s":                   setupS(func(t setupTimes) time.Duration { return t.grid }),
		"screen.pairs_kept":            float64(kept),
		"screen.pair_survival":         survival,
		"dft.grid_points":              float64(gridPoints(prep)),
		"integrals.eri_sweep_s":        sweep.Seconds(),
		"integrals.eri_quartets_per_s": float64(quartets) / sweep.Seconds(),
		"integrals.prim_quartets":      float64(prims),
		"hfx.build_s":                  iterS(func(it iterationProbe) time.Duration { return it.build }),
		"hfx.compute_s":                iterS(func(it iterationProbe) time.Duration { return it.compute }),
		"hfx.reduce_s":                 iterS(func(it iterationProbe) time.Duration { return it.reduce }),
		"hfx.quartets_computed":        float64(last.computed),
		"hfx.quartets_screened":        float64(last.screened),
		"hfx.useful_ratio":             ratio(float64(last.computed), float64(last.computed+last.screened)),
		"hfx.balance":                  last.balance,
		"hfx.buffer_bytes":             float64(last.bufferBytes),
		"hfx.cache_slab_bytes":         float64(last.slabBytes),
		"dft.xc_s":                     iterS(func(it iterationProbe) time.Duration { return it.xc }),
		"linalg.eigen_s":               iterS(func(it iterationProbe) time.Duration { return it.eigen }),
		"scf.iterations":               float64(in.res.Iterations),
		"scf.iter_s":                   median(seconds(in.iterWalls)),
	}
	perIter := m["hfx.build_s"] + m["dft.xc_s"] + m["linalg.eigen_s"]
	attributed := setupS(setupTimes.total) + float64(in.res.Iterations)*perIter
	m["scf.unattributed_frac"] = 1 - attributed/in.wall.Seconds()
	return m, nil
}

// zeroLayers returns every per-layer metric at 0, the reading of a layer
// that is not on a workload's path; workloads overwrite what they measure.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// merge copies src into dst.
func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}
