// Package md implements Born–Oppenheimer molecular dynamics on the SCF
// potential-energy surface: one velocity-Verlet/r-RESPA integrator with
// central finite-difference Hellmann–Feynman forces, a Berendsen
// thermostat, and the constrained reaction-coordinate scans used for
// the Li/air electrolyte-degradation study (paper experiment E8).
//
// Run is r-RESPA (Tuckerman/Berne/Martyna splitting, applied to
// hybrid-functional AIMD following Mandal et al., arXiv:2110.07670): a
// cheap reference force drives the inner velocity-Verlet loop at δt,
// and the slow correction F_slow = F_full − F_cheap — the force of the
// full HFX-bearing SCF surface — kicks the velocities only every K-th
// step, at Δt = K·δt. With no reference (and K=1) there are no cheap
// kicks and F_slow = F_full: the loop is plain velocity Verlet, and
// that is how plain BOMD runs.
//
// Finite-difference forces substitute for the analytic integral
// derivatives of the production code: on the cluster models driven here
// they are accurate to ~1e-6 hartree/bohr and exercise the identical SCF
// machinery (the paper's point is the cost of each SCF energy, which is
// dominated by HFX).
package md

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/phys"
	"hfxmd/internal/scf"
)

// PotentialFunc maps a geometry to a total energy in hartree.
type PotentialFunc func(*chem.Molecule) (float64, error)

// SCFPotential adapts an scf.Config into a PotentialFunc.
func SCFPotential(cfg scf.Config) PotentialFunc {
	return func(m *chem.Molecule) (float64, error) {
		res, err := scf.Run(m, cfg)
		if err != nil {
			return 0, err
		}
		if !res.Converged {
			return res.Energy, fmt.Errorf("md: SCF not converged at this geometry")
		}
		return res.Energy, nil
	}
}

// Forces computes −∂E/∂R by central differences with step h (bohr),
// evaluating the 6N displaced energies over a bounded worker group sized
// by GOMAXPROCS. Identical (bitwise) to ForcesN with any worker count:
// each force component depends only on its own two displaced energies.
func Forces(mol *chem.Molecule, pot PotentialFunc, h float64) ([]chem.Vec3, error) {
	return ForcesN(mol, pot, h, 0)
}

// ForcesN is Forces with an explicit worker bound (0 or negative means
// GOMAXPROCS; the bound is clamped to the 3N displacement jobs). Every
// worker displaces its own clone of the geometry, so pot is called
// concurrently — the PotentialFunc must be safe for that, which
// SCFPotential is (each call builds its own SCF state).
func ForcesN(mol *chem.Molecule, pot PotentialFunc, h float64, workers int) ([]chem.Vec3, error) {
	if h <= 0 {
		h = 5e-3
	}
	n := mol.NAtoms()
	jobs := 3 * n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	f := make([]chem.Vec3, n)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work := mol.Clone()
			for {
				jid := int(next.Add(1)) - 1
				if jid >= jobs || errs[w] != nil {
					return
				}
				i, k := jid/3, jid%3
				orig := work.Atoms[i].Pos[k]
				work.Atoms[i].Pos[k] = orig + h
				ep, err := pot(work)
				if err != nil {
					errs[w] = fmt.Errorf("md: forward displacement atom %d dim %d: %w", i, k, err)
					return
				}
				work.Atoms[i].Pos[k] = orig - h
				em, err := pot(work)
				if err != nil {
					errs[w] = fmt.Errorf("md: backward displacement atom %d dim %d: %w", i, k, err)
					return
				}
				work.Atoms[i].Pos[k] = orig
				f[i][k] = -(ep - em) / (2 * h)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Evaluator returns the potential energy and forces −∂E/∂R of a
// geometry — the full (slow) surface.
type Evaluator func(m *chem.Molecule) (epot float64, f []chem.Vec3, err error)

// ForceField returns only the forces of a geometry — the cheap (fast)
// reference surface, evaluated every inner step, where its energy is
// never needed.
type ForceField func(m *chem.Molecule) ([]chem.Vec3, error)

// FDEvaluator adapts a PotentialFunc into the full-surface Evaluator:
// central finite-difference forces (ForcesN, 6N evaluations) plus one
// central energy.
func FDEvaluator(pot PotentialFunc, h float64, workers int) Evaluator {
	return func(m *chem.Molecule) (float64, []chem.Vec3, error) {
		f, err := ForcesN(m, pot, h, workers)
		if err != nil {
			return 0, nil, err
		}
		e, err := pot(m)
		if err != nil {
			return 0, nil, err
		}
		return e, f, nil
	}
}

// Options configures a trajectory.
type Options struct {
	// Steps is the number of outer steps (full-surface evaluations).
	Steps int
	// K is the number of inner steps per outer step (default 1). K > 1
	// needs a cheap reference force.
	K int
	// Dt is the inner timestep in femtoseconds (default 0.5); the outer
	// timestep is K·Dt.
	Dt float64
	// TemperatureK seeds velocities and, with Thermostat, drives the bath.
	TemperatureK float64
	// Thermostat enables Berendsen rescaling, applied once per outer step.
	Thermostat bool
	// TauFS is the Berendsen coupling time (default 20 fs).
	TauFS float64
	// FDStep records the finite-difference displacement (bohr) of the
	// full surface in a plain run's parameter fingerprint; the evaluator
	// itself carries the step it uses.
	FDStep float64
	// Seed makes velocity initialisation reproducible.
	Seed int64
	// RefLabel names the cheap reference force; it is folded into the
	// fingerprint of a RESPA run so a resume with a different reference
	// is rejected.
	RefLabel string
	// Ckpt, if non-nil, makes every completed inner step durable: one
	// journal record per step plus a periodic snapshot ring (see package
	// ckpt).
	Ckpt *ckpt.Writer
	// Resume, if non-nil, continues a trajectory from a restored state
	// (ckpt.Load) instead of initialising velocities. Positions,
	// velocities, forces, energy extrema and the RNG are restored
	// bit-for-bit, so the resumed run is bitwise identical to the
	// uninterrupted one from the restore point on, whether the state
	// landed on an outer boundary or between two. The remaining Options
	// must match the original run; a mismatch is rejected via the
	// state's parameter fingerprint.
	Resume *ckpt.MDState
	// Ctx, if non-nil, is polled before every inner step; cancellation
	// surfaces as a *StepError wrapping ctx.Err(), identifying the step
	// the trajectory stopped at.
	Ctx context.Context
	// OnOuterStep, if non-nil, is called after each recorded frame with
	// the outer index (0 for the initial state) and the frame — the
	// streamed-progress hook hfxd trajectory jobs use.
	OnOuterStep func(outer int, f Frame)
}

// StepError reports a failure — an SCF that stopped converging, a
// checkpoint write error, an injected fault — at a specific MD step,
// so a driver can resume from the last durable state and retry instead
// of discarding the trajectory.
type StepError struct {
	Step int
	Err  error
}

func (e *StepError) Error() string { return fmt.Sprintf("md: step %d: %v", e.Step, e.Err) }

// Unwrap exposes the cause to errors.Is/As.
func (e *StepError) Unwrap() error { return e.Err }

// ConfigError rejects options, or a resume state, that the run cannot
// use. Run returns it before any force evaluation.
type ConfigError struct{ Reason string }

func (e *ConfigError) Error() string { return "md: " + e.Reason }

// Frame is one trajectory snapshot.
type Frame struct {
	Step      int
	TimeFS    float64
	Potential float64 // hartree
	Kinetic   float64 // hartree
	Total     float64 // hartree
	TempK     float64
	Positions []chem.Vec3
}

// Trajectory is the result of a run.
type Trajectory struct {
	// Frames are recorded at outer boundaries, where the full potential
	// is evaluated.
	Frames []Frame
	Mol    *chem.Molecule // final geometry
	// Final is the complete restartable state after the last completed
	// (inner) step — what a checkpoint of that step would contain, and
	// what the aimd -json summary fingerprints.
	Final *ckpt.MDState
	// eLo/eHi accumulate the conserved-energy extrema over every frame,
	// including (on a resumed run) the frames recorded before the
	// restart; seen marks whether any frame contributed.
	eLo, eHi float64
	seen     bool
}

// EnergyDrift returns the peak-to-peak variation of the conserved total
// energy per atom, the standard integrator-quality diagnostic. The
// extrema are accumulated as frames are recorded and restored across a
// checkpoint/resume boundary, so a resumed run reports exactly the
// drift of the uninterrupted one.
func (t *Trajectory) EnergyDrift() float64 {
	if !t.seen {
		return 0
	}
	return (t.eHi - t.eLo) / float64(len(t.Mol.Atoms))
}

// paramsHash fingerprints the run configuration and system identity:
// everything that must match for a checkpoint to be resumable by this
// run. Positions are deliberately excluded — they evolve, and so is
// Steps: extending the horizon changes no per-step arithmetic. A RESPA
// run's fingerprint is tagged with the split (K, reference label) and
// a plain run's covers FDStep instead, so plain and RESPA checkpoints
// can never resume each other.
func paramsHash(m *chem.Molecule, opts *Options, split bool) uint64 {
	h := fnv.New64a()
	w := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	if split {
		h.Write([]byte("respa\x00" + opts.RefLabel + "\x00"))
		w(uint64(opts.K))
	}
	w(math.Float64bits(opts.Dt))
	w(math.Float64bits(opts.TemperatureK))
	if opts.Thermostat {
		w(1)
	} else {
		w(0)
	}
	w(math.Float64bits(opts.TauFS))
	if !split {
		w(math.Float64bits(opts.FDStep))
	}
	w(uint64(opts.Seed))
	w(uint64(int64(m.Charge)))
	w(uint64(m.NAtoms()))
	for _, a := range m.Atoms {
		w(uint64(a.El))
	}
	return h.Sum64()
}

// checkResume rejects a restored state this run cannot continue.
func checkResume(st *ckpt.MDState, natoms int, ph uint64, split bool, totalInner int) error {
	switch {
	case len(st.Pos) != natoms:
		return &ConfigError{fmt.Sprintf("resume state holds %d atoms, molecule has %d", len(st.Pos), natoms)}
	case split && st.Slow == nil:
		return &ConfigError{fmt.Sprintf("resume state at step %d is a plain-MD state, not a RESPA one", st.Step)}
	case !split && st.Slow != nil:
		return &ConfigError{fmt.Sprintf("resume state at step %d is a RESPA state, not a plain-MD one", st.Step)}
	case st.ParamsHash != ph:
		return &ConfigError{fmt.Sprintf("resume state was written by a different run configuration (params fingerprint %016x, want %016x)", st.ParamsHash, ph)}
	case int(st.Step) > totalInner:
		return &ConfigError{fmt.Sprintf("resume state is at inner step %d, beyond Steps·K=%d", st.Step, totalInner)}
	}
	return nil
}

// Run integrates a trajectory on the full surface, split r-RESPA style
// when cheap is non-nil, optionally checkpointing every inner step
// (Options.Ckpt) and optionally continuing a restored one
// (Options.Resume). A nil cheap means plain velocity Verlet on the full
// surface: K must then be 1, and the restartable state holds the full
// force in Frc with Slow nil (the version-1 checkpoint image).
func Run(mol *chem.Molecule, full Evaluator, cheap ForceField, opts Options) (*Trajectory, error) {
	if opts.Steps <= 0 {
		return nil, &ConfigError{"Steps must be positive"}
	}
	if opts.K <= 0 {
		opts.K = 1
	}
	split := cheap != nil
	if !split && opts.K > 1 {
		return nil, &ConfigError{fmt.Sprintf("K=%d needs a cheap reference force", opts.K)}
	}
	if opts.Dt <= 0 {
		opts.Dt = 0.5
	}
	if opts.TauFS <= 0 {
		opts.TauFS = 20
	}
	k := opts.K
	dt := opts.Dt * phys.FemtosecondToAtomicTime
	outerDt := float64(k) * dt
	totalInner := opts.Steps * k

	m := mol.Clone()
	n := m.NAtoms()
	masses := AtomicMasses(m)
	ph := paramsHash(m, &opts, split)

	traj := &Trajectory{Mol: m, eLo: math.Inf(1), eHi: math.Inf(-1)}
	var (
		vel      []chem.Vec3 // velocities
		fc       []chem.Vec3 // cheap force (split runs only)
		fs       []chem.Vec3 // slow force: F_full − F_cheap, or F_full when plain
		epot     float64     // full potential at the last outer boundary
		rngState [3]uint64
	)
	// stateAt captures the complete post-step state — the unit of both
	// checkpointing and the Final fingerprint.
	stateAt := func(step int) *ckpt.MDState {
		st := &ckpt.MDState{
			Step: int64(step),
			Pos:  make([]chem.Vec3, n),
			Vel:  append([]chem.Vec3(nil), vel...),
			Frc:  append([]chem.Vec3(nil), fs...),
			Epot: epot,
			ELo:  traj.eLo, EHi: traj.eHi,
			RNG:        rngState,
			ParamsHash: ph,
		}
		if split {
			st.Frc, st.Slow = append([]chem.Vec3(nil), fc...), st.Frc
		}
		for i := range st.Pos {
			st.Pos[i] = m.Atoms[i].Pos
		}
		return st
	}
	record := func(step int) {
		ekin := kinetic(vel, masses)
		pos := make([]chem.Vec3, n)
		for i := range pos {
			pos[i] = m.Atoms[i].Pos
		}
		f := Frame{
			Step:      step,
			TimeFS:    float64(step) * opts.Dt,
			Potential: epot,
			Kinetic:   ekin,
			Total:     epot + ekin,
			TempK:     temperature(ekin, n),
			Positions: pos,
		}
		if f.Total < traj.eLo {
			traj.eLo = f.Total
		}
		if f.Total > traj.eHi {
			traj.eHi = f.Total
		}
		traj.seen = true
		traj.Frames = append(traj.Frames, f)
		traj.Final = stateAt(step)
		if opts.OnOuterStep != nil {
			opts.OnOuterStep(step/k, f)
		}
	}
	// evalFull evaluates the full surface at the current geometry and
	// derives the slow force from it.
	evalFull := func() error {
		e, ffull, err := full(m)
		if err != nil {
			return err
		}
		epot, fs = e, ffull
		if split {
			fs = make([]chem.Vec3, n)
			for i := range fs {
				fs[i] = ffull[i].Sub(fc[i])
			}
		}
		return nil
	}

	startStep := 1
	if st := opts.Resume; st != nil {
		if err := checkResume(st, n, ph, split, totalInner); err != nil {
			return nil, err
		}
		for i := range m.Atoms {
			m.Atoms[i].Pos = st.Pos[i]
		}
		vel = append([]chem.Vec3(nil), st.Vel...)
		fs = append([]chem.Vec3(nil), st.Frc...)
		if split {
			fc, fs = fs, append([]chem.Vec3(nil), st.Slow...)
		}
		epot = st.Epot
		rngState = st.RNG
		traj.eLo, traj.eHi = st.ELo, st.EHi
		traj.seen = true
		if st.Step%int64(k) == 0 {
			// Outer-boundary restore point: re-emit its frame, bitwise
			// equal to the original's.
			record(int(st.Step))
		} else {
			traj.Final = stateAt(int(st.Step))
		}
		startStep = int(st.Step) + 1
	} else {
		vel, rngState = DrawVelocities(m, masses, opts.TemperatureK, opts.Seed)
		if split {
			var err error
			if fc, err = cheap(m); err != nil {
				return nil, &StepError{Step: 0, Err: err}
			}
		}
		if err := evalFull(); err != nil {
			return nil, &StepError{Step: 0, Err: err}
		}
		record(0)
		if opts.Ckpt != nil {
			if err := opts.Ckpt.OnStep(traj.Final); err != nil {
				return traj, &StepError{Step: 0, Err: err}
			}
		}
	}

	for step := startStep; step <= totalInner; step++ {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return traj, &StepError{Step: step, Err: err}
			}
		}
		// A cycle's opening slow half-kick reuses F_slow evaluated at the
		// previous boundary — the positions have not moved since.
		if (step-1)%k == 0 {
			halfKick(vel, fs, masses, outerDt)
		}
		// Inner velocity Verlet on the cheap surface; plain runs only drift.
		if split {
			halfKick(vel, fc, masses, dt)
		}
		for i := 0; i < n; i++ {
			for c := 0; c < 3; c++ {
				m.Atoms[i].Pos[c] += dt * vel[i][c]
			}
		}
		if split {
			var err error
			if fc, err = cheap(m); err != nil {
				return traj, &StepError{Step: step, Err: err}
			}
			halfKick(vel, fc, masses, dt)
		}
		if step%k == 0 {
			// Outer boundary: full surface, closing slow half-kick,
			// thermostat, frame.
			if err := evalFull(); err != nil {
				return traj, &StepError{Step: step, Err: err}
			}
			halfKick(vel, fs, masses, outerDt)
			if opts.Thermostat && opts.TemperatureK > 0 {
				berendsen(vel, masses, opts.TemperatureK, opts.Dt*float64(k), opts.TauFS)
			}
			record(step)
		} else {
			traj.Final = stateAt(step)
		}
		if opts.Ckpt != nil {
			if err := opts.Ckpt.OnStep(traj.Final); err != nil {
				return traj, &StepError{Step: step, Err: err}
			}
		}
	}
	return traj, nil
}

// halfKick advances velocities by half a step dt (atomic time) of force f.
func halfKick(vel, f []chem.Vec3, masses []float64, dt float64) {
	for i := range vel {
		for c := 0; c < 3; c++ {
			vel[i][c] += 0.5 * dt * f[i][c] / masses[i]
		}
	}
}

// kinetic returns ½Σmv² in hartree.
func kinetic(vel []chem.Vec3, masses []float64) float64 {
	var e float64
	for i, v := range vel {
		e += 0.5 * masses[i] * v.Norm2()
	}
	return e
}

// temperature converts kinetic energy to an instantaneous temperature via
// equipartition over 3N degrees of freedom.
func temperature(ekin float64, n int) float64 {
	dof := 3 * n
	if dof == 0 {
		return 0
	}
	return 2 * ekin / (float64(dof) * phys.BoltzmannHartreePerK)
}

// berendsen rescales velocities towards the bath temperature t0 with
// coupling time tauFS over an elapsed dtFS.
func berendsen(vel []chem.Vec3, masses []float64, t0, dtFS, tauFS float64) {
	tcur := temperature(kinetic(vel, masses), len(vel))
	if tcur <= 0 {
		return
	}
	lambda := math.Sqrt(1 + dtFS/tauFS*(t0/tcur-1))
	for i := range vel {
		vel[i] = vel[i].Scale(lambda)
	}
}

// initVelocities draws Maxwell–Boltzmann velocities, removes the centre-
// of-mass drift, and rescales to the target temperature exactly. The
// caller owns the RNG so its post-init state can be checkpointed.
func initVelocities(m *chem.Molecule, masses []float64, tempK float64, rng *rng) []chem.Vec3 {
	n := m.NAtoms()
	vel := make([]chem.Vec3, n)
	if tempK <= 0 {
		return vel
	}
	for i := range vel {
		sigma := math.Sqrt(phys.BoltzmannHartreePerK * tempK / masses[i])
		for k := 0; k < 3; k++ {
			vel[i][k] = sigma * rng.NormFloat64()
		}
	}
	// Remove COM momentum.
	var ptot chem.Vec3
	var mtot float64
	for i := range vel {
		ptot = ptot.Add(vel[i].Scale(masses[i]))
		mtot += masses[i]
	}
	vcom := ptot.Scale(1 / mtot)
	for i := range vel {
		vel[i] = vel[i].Sub(vcom)
	}
	// Exact rescale to T.
	tcur := temperature(kinetic(vel, masses), n)
	if tcur > 0 {
		s := math.Sqrt(tempK / tcur)
		for i := range vel {
			vel[i] = vel[i].Scale(s)
		}
	}
	return vel
}
