package main

import (
	"fmt"
	"runtime"
	"time"

	"hfxmd"
)

// respa-aimd settings: a k=2 split at 300 K with the Berendsen bath, the
// full PBE0 surface through an MD session and the pure-PBE baseline as
// the cheap force.
const (
	respaK     = 2
	respaDtFS  = 0.5
	respaTempK = 300
	// respaOuterSteps is the length of one trajectory, the default of an
	// hfxd trajectory job. A pass repeats the same seeded trajectory until
	// its time is up, so the drift check sees the same trajectory however
	// fast the machine is.
	respaOuterSteps = 4
	// respaDriftCeiling is the per-atom conserved-energy drift ceiling
	// (Eh) the repository's multiple-time-step bench gates on.
	respaDriftCeiling = 5e-4
)

// respaAIMD is a seeded RESPA trajectory on water/STO-3G, measured per
// outer step.
func respaAIMD(p *pass) (*passResult, error) {
	mol := hfxmd.Water()
	cfg := hfxmd.SCFConfig{Basis: "STO-3G", Functional: hfxmd.PBE0{}}
	res := &passResult{details: map[string]any{
		"input_digest": digest(struct {
			Atoms         []hfxmd.Atom
			Velocities    []hfxmd.Vec3
			K, OuterSteps int
			DtFS, TempK   float64
			Basis, Func   string
		}{mol.Atoms, initialVelocities(mol, respaTempK, p.seed), respaK, respaOuterSteps, respaDtFS, respaTempK, cfg.Basis, cfg.Functional.Name()}),
	}}
	setup, err := measureSetup(p, mol, cfg)
	if err != nil {
		return nil, err
	}
	res.setup = setup

	var run respaRun
	for start := time.Now(); run.trajectories == 0 || time.Since(start) < p.dur; {
		if err := run.trajectory(p, res, mol, cfg); err != nil {
			return nil, err
		}
	}
	if len(res.jobs) == 0 || run.final == nil {
		return nil, fmt.Errorf("respa-aimd: no trajectory completed")
	}
	res.details["trajectories"] = run.trajectories
	res.details["drift_per_atom"] = run.drift

	if p.rec != nil {
		res.layers = zeroLayers()
		st := run.stats
		evals := float64(respaOuterSteps + 1)
		merge(res.layers, map[string]float64{
			"md.forces_s":                median(seconds(run.forceWalls)),
			"respa.ref_s":                median(seconds(run.refWalls)),
			"md.scf_iters_per_step":      float64(st.SCFIterations) / evals,
			"md.displaced_runs_per_step": float64(st.DisplacedRuns) / evals,
			"md.warm_start_ratio":        ratio(float64(st.WarmStarts), float64(st.Runs)),
			"md.pairlist_reuse_ratio":    ratio(float64(st.PairListReuses), float64(st.PairListBuilds+st.PairListReuses)),
			"md.fallbacks":               float64(st.Fallbacks),
		})
		// The layer probes run on a cold SCF at the trajectory's last
		// geometry.
		r, wall, iters, err := runSCF(p.rec, p.root, run.final, cfg)
		if err != nil || !r.Converged {
			return nil, fmt.Errorf("respa-aimd: probe SCF at the final geometry did not converge: %v", err)
		}
		m, err := probeLayers(p, probeInput{mol: run.final, cfg: cfg, res: r, wall: wall, iterWalls: iters})
		if err != nil {
			return nil, err
		}
		merge(res.layers, m)
	}
	return res, nil
}

// respaRun accumulates the trajectories of one pass.
type respaRun struct {
	trajectories         int
	forceWalls, refWalls []time.Duration
	stats                hfxmd.MDSessionStats // of the last trajectory's session
	drift                float64              // of the last trajectory
	final                *hfxmd.Molecule      // the last trajectory's last geometry
}

// trajectory integrates the seeded trajectory once on a fresh MD session,
// recording each outer step's wall (step 0, the cold start, excluded) and
// checking that every SCF converged and the drift stays under the ceiling.
// An SCF that does not converge fails its step and ends the trajectory.
func (r *respaRun) trajectory(p *pass, res *passResult, mol *hfxmd.Molecule, cfg hfxmd.SCFConfig) error {
	workers := runtime.NumCPU()
	cheapFF, label, err := hfxmd.BuildRespaReference(hfxmd.RespaRefBaseline, mol, cfg, 0, workers)
	if err != nil {
		return err
	}
	sess := hfxmd.NewMDSession(cfg, hfxmd.MDSessionOptions{})
	defer sess.Close()
	runID := p.rec.begin(p.root, "respa.run")
	defer p.rec.end(runID)
	full := func(m *hfxmd.Molecule) (float64, []hfxmd.Vec3, error) {
		var f []hfxmd.Vec3
		var e float64
		var ferr error
		r.forceWalls = append(r.forceWalls, p.rec.do(runID, "md.forces", func() { f, e, ferr = sess.Forces(m, 0, workers) }))
		return e, f, ferr
	}
	cheap := func(m *hfxmd.Molecule) ([]hfxmd.Vec3, error) {
		var f []hfxmd.Vec3
		var ferr error
		r.refWalls = append(r.refWalls, p.rec.do(runID, "respa.ref", func() { f, ferr = cheapFF(m) }))
		return f, ferr
	}
	var last time.Time
	opts := hfxmd.RespaOptions{
		Steps: respaOuterSteps, K: respaK, Dt: respaDtFS, TemperatureK: respaTempK,
		Thermostat: true, Seed: p.seed, RefLabel: label,
		OnOuterStep: func(outer int, _ hfxmd.Frame) {
			now := time.Now()
			res.attempted++
			if outer > 0 {
				step := now.Sub(last)
				res.jobs = append(res.jobs, step)
				res.rates = append(res.rates, 1/step.Seconds())
			}
			last = now
		},
	}
	traj, err := hfxmd.RunRESPA(mol, full, cheap, opts)
	r.trajectories++
	if err != nil {
		res.attempted++ // the step that failed
		res.fail("respa: %v", err)
		return nil
	}
	r.drift = traj.EnergyDrift()
	if !(r.drift < respaDriftCeiling) {
		res.fail("respa: per-atom drift %.3e Eh above the %.0e ceiling", r.drift, respaDriftCeiling)
	}
	r.stats = sess.Stats()
	r.final = traj.Mol
	return nil
}
