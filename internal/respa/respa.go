// Package respa builds the cheap reference surfaces of r-RESPA
// multiple-time-step BOMD (Tuckerman/Berne/Martyna splitting, applied
// to hybrid-functional AIMD following Mandal et al., arXiv:2110.07670).
// The integrator itself is md.Run: a reference force from this package
// drives its inner velocity-Verlet loop at δt, and the expensive
// correction F_slow = F_full − F_cheap — in this codebase, the force of
// the full HFX-bearing SCF surface — kicks the velocities only every
// k-th step, at Δt = k·δt. Because the paper's per-step cost is
// dominated by exact exchange, evaluating it 1/k as often is the single
// biggest per-trajectory lever the roadmap names.
//
// Without a reference md.Run is plain velocity Verlet on the full
// surface, bit for bit; a reference at k=1 agrees with it to rounding.
// The references here range from an analytic spring network (free next
// to any SCF) to finite-difference forces on a loosened or pure-GGA SCF.
package respa

import (
	"fmt"

	"hfxmd/internal/chem"
	"hfxmd/internal/dft"
	"hfxmd/internal/md"
	"hfxmd/internal/scf"
)

// FDReference adapts a PotentialFunc into a cheap ForceField by central
// finite differences — the "FD on a loose SCF" and "PBE-style baseline"
// reference modes.
func FDReference(pot md.PotentialFunc, h float64, workers int) md.ForceField {
	return func(m *chem.Molecule) ([]chem.Vec3, error) {
		return md.ForcesN(m, pot, h, workers)
	}
}

// SpringReference builds an analytic harmonic-bond reference from the
// initial geometry: every pair the covalent-radius heuristic calls
// bonded (scale factor bondScale, default 1.3) becomes a spring of
// stiffness kSpring (hartree/bohr², default 0.35) at its initial
// length. When the heuristic finds no bonds (noble gases, stretched
// dimers) every atom pair becomes a spring, so the reference is never
// empty for a polyatomic. The reference costs O(bonds) per inner step —
// effectively free next to any SCF — and its only job is to carry the
// stiff near-equilibrium motion between HFX corrections.
func SpringReference(mol *chem.Molecule, bondScale, kSpring float64) md.ForceField {
	if bondScale <= 0 {
		bondScale = 1.3
	}
	if kSpring <= 0 {
		kSpring = 0.35
	}
	pairs := mol.Bonds(bondScale)
	if len(pairs) == 0 {
		for i := 0; i < mol.NAtoms(); i++ {
			for j := i + 1; j < mol.NAtoms(); j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	r0 := make([]float64, len(pairs))
	for b, p := range pairs {
		r0[b] = mol.Distance(p[0], p[1])
	}
	return func(m *chem.Molecule) ([]chem.Vec3, error) {
		f := make([]chem.Vec3, m.NAtoms())
		for b, p := range pairs {
			i, j := p[0], p[1]
			d := m.Atoms[j].Pos.Sub(m.Atoms[i].Pos)
			r := d.Norm()
			if r == 0 {
				continue
			}
			// F_i = k(r−r0)·û_ij: pulls i towards j when stretched.
			s := kSpring * (r - r0[b]) / r
			f[i] = f[i].Add(d.Scale(s))
			f[j] = f[j].Sub(d.Scale(s))
		}
		return f, nil
	}
}

// LooseSCF derives the loosened solver settings for a reference surface
// from a production config: convergence three orders of magnitude
// coarser and a tighter iteration cap, enough for forces that only have
// to track the cheap part of the dynamics between HFX corrections.
func LooseSCF(cfg scf.Config) scf.Config {
	loose := cfg
	loose.EnergyTol = 1e-5
	loose.CommutatorTol = 1e-3
	if loose.MaxIter == 0 || loose.MaxIter > 50 {
		loose.MaxIter = 50
	}
	return loose
}

// BaselineSCF derives the PBE-style baseline reference from a
// production config: the semilocal functional with no exact-exchange
// fraction, the split Mandal et al. use (full hybrid on the outer step,
// pure GGA inside).
func BaselineSCF(cfg scf.Config) scf.Config {
	base := cfg
	base.Functional = dft.PBE{}
	return base
}

// Reference modes accepted by BuildReference.
const (
	RefSpring   = "spring"
	RefLoose    = "loose"
	RefBaseline = "baseline"
)

// BuildReference resolves a named cheap-force mode against the initial
// geometry and production SCF config: "spring" (analytic harmonic
// bonds), "loose" (FD forces on a loosened SCF) or "baseline" (FD
// forces on the PBE baseline surface). fdStep and workers configure the
// finite-difference modes; the returned label goes into
// md.Options.RefLabel.
func BuildReference(mode string, mol *chem.Molecule, cfg scf.Config, fdStep float64, workers int) (md.ForceField, string, error) {
	switch mode {
	case RefSpring, "":
		return SpringReference(mol, 0, 0), RefSpring, nil
	case RefLoose:
		return FDReference(md.SCFPotential(LooseSCF(cfg)), fdStep, workers), RefLoose, nil
	case RefBaseline:
		return FDReference(md.SCFPotential(BaselineSCF(cfg)), fdStep, workers), RefBaseline, nil
	default:
		return nil, "", fmt.Errorf("respa: unknown reference mode %q (want %s, %s or %s)",
			mode, RefSpring, RefLoose, RefBaseline)
	}
}
