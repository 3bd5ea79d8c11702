package main

import (
	"fmt"
	"math"
	"time"

	"hfxmd"
)

// The pbe0-scf answer: DMSO PBE0/STO-3G total energy as the code computed
// it when this benchmark was defined, and the tolerance on it.
const (
	dmsoPBE0Energy = -546.3837412
	dmsoEnergyTol  = 1e-6
)

// pbe0SCF is one cold PBE0 SCF on DMSO/STO-3G with the program's
// defaults (fully direct, all CPUs, default tolerances and grid),
// repeated until the pass's time is up. The seed does not enter: the
// input is fixed.
func pbe0SCF(p *pass) (*passResult, error) {
	mol := hfxmd.DimethylSulfoxide()
	cfg := hfxmd.SCFConfig{Basis: "STO-3G", Functional: hfxmd.PBE0{}}
	res := &passResult{details: map[string]any{
		"input_digest": digest(struct {
			Atoms             []hfxmd.Atom
			Basis, Functional string
		}{mol.Atoms, cfg.Basis, cfg.Functional.Name()}),
	}}

	setup, err := measureSetup(p, mol, cfg)
	if err != nil {
		return nil, err
	}
	res.setup = setup

	var last probeInput
	for start := time.Now(); len(res.jobs) == 0 || time.Since(start) < p.dur; {
		r, wall, iters, err := runSCF(p.rec, p.root, mol, cfg)
		res.attempted++
		res.jobs = append(res.jobs, wall)
		res.rates = append(res.rates, 1/wall.Seconds())
		switch {
		case err != nil:
			res.fail("scf: %v", err)
		case !r.Converged:
			res.fail("scf: not converged after %d iterations", r.Iterations)
		case math.Abs(r.Energy-dmsoPBE0Energy) > dmsoEnergyTol:
			res.fail("scf: energy %.10f, want %.7f ± %g", r.Energy, dmsoPBE0Energy, dmsoEnergyTol)
		default:
			last = probeInput{mol: mol, cfg: cfg, res: r, wall: wall, iterWalls: iters}
		}
	}

	if p.rec != nil {
		if last.res == nil {
			return nil, fmt.Errorf("pbe0-scf: no converged SCF to probe")
		}
		res.layers = zeroLayers()
		m, err := probeLayers(p, last)
		if err != nil {
			return nil, err
		}
		merge(res.layers, m)
	}
	return res, nil
}
