package md

import (
	"hfxmd/internal/chem"
	"hfxmd/internal/phys"
)

// This file exports the integrator's initial conditions — the mass
// table and the Maxwell–Boltzmann draw Run makes — for callers that
// need a trajectory's starting point without integrating it.

// AtomicMasses returns per-atom masses in electron-mass units, the
// integrator's native unit.
func AtomicMasses(m *chem.Molecule) []float64 {
	masses := make([]float64, m.NAtoms())
	for i, a := range m.Atoms {
		masses[i] = a.El.Mass() * phys.AMUToElectronMass
	}
	return masses
}

// DrawVelocities initialises Maxwell–Boltzmann velocities from a fresh
// RNG seeded with seed and returns them together with the post-draw RNG
// state, which Run carries in every checkpoint. The draw is the one Run
// performs for the same seed.
func DrawVelocities(m *chem.Molecule, masses []float64, tempK float64, seed int64) ([]chem.Vec3, [3]uint64) {
	r := newRNG(seed)
	vel := initVelocities(m, masses, tempK, r)
	return vel, r.state()
}
