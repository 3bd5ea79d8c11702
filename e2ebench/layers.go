package main

// This is the one file of the benchmark that imports hfxmd/internal: the
// layers the root hfxmd API does not expose (integral engine, screening,
// HFX builder, XC grid, eigensolver, workload generator) are reached from
// here, and every other file goes through the root API or these helpers.

import (
	"context"
	"math"
	"time"

	"hfxmd"
	"hfxmd/internal/dft"
	"hfxmd/internal/hfx"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/md"
	"hfxmd/internal/scf"
	"hfxmd/internal/screen"
	"hfxmd/internal/server"
	"hfxmd/internal/steal"
	"hfxmd/internal/trace"
	"hfxmd/internal/workload"
)

// prepared holds the set-up products of one system: what an SCF needs
// before its first iteration can start.
type prepared struct {
	set  *hfxmd.BasisSet
	eng  *integrals.Engine
	s, h *linalg.Matrix
	scr  *screen.Result
	b    *hfx.Builder
	grid *dft.Grid // nil for functionals without an XC term
}

// setupTimes is the wall of each prepare call.
type setupTimes struct {
	basis, onee, pairlist, builder, grid time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.basis + t.onee + t.pairlist + t.builder + t.grid
}

// prepare runs the set-up calls of an SCF one by one, each timed and,
// when rec is non-nil, wrapped in a span under parent. The caller closes
// the returned builder.
func prepare(rec *recorder, parent int, mol *hfxmd.Molecule, cfg hfxmd.SCFConfig) (*prepared, setupTimes, error) {
	var p prepared
	var t setupTimes
	var err error
	t.basis = rec.do(parent, "basis.build", func() { p.set, err = hfxmd.BuildBasis(cfg.Basis, mol) })
	if err != nil {
		return nil, t, err
	}
	t.onee = rec.do(parent, "integrals.onee", func() {
		p.eng = integrals.NewEngine(p.set)
		p.s = p.eng.Overlap()
		p.h = p.eng.CoreHamiltonian()
	})
	sopts := cfg.Screen
	if sopts == (screen.Options{}) {
		sopts = screen.DefaultOptions()
	}
	t.pairlist = rec.do(parent, "screen.pairlist", func() { p.scr = screen.BuildPairList(p.eng, sopts) })
	hopts := cfg.HFX
	if hopts == (hfx.Options{}) {
		hopts = hfx.DefaultOptions()
	}
	t.builder = rec.do(parent, "hfx.prepare", func() { p.b = hfx.NewBuilder(p.eng, p.scr, hopts) })
	if cfg.Functional != nil && cfg.Functional.NeedsGrid() {
		t.grid = rec.do(parent, "dft.grid", func() { p.grid = dft.BuildGrid(mol, cfg.Grid) })
	}
	return &p, t, nil
}

// iterationProbe is the cost of one SCF iteration's layer calls on a
// fixed density, with the Fock build's own accounting.
type iterationProbe struct {
	build, xc, eigen   time.Duration
	compute, reduce    time.Duration // the build's phases
	computed, screened int64         // quartets
	balance            float64       // the task schedule's max/mean load
	bufferBytes        int64         // the builder's pooled buffers
	slabBytes          int64         // its semi-direct ERI cache slabs
}

// probeIteration replays the layer calls of one SCF iteration on density
// dens: the Fock build, the XC integration and the diagonalisation of the
// orthonormalised Fock matrix.
func probeIteration(rec *recorder, parent int, p *prepared, f hfxmd.Functional, dens *linalg.Matrix) iterationProbe {
	var out iterationProbe
	var jm, km *linalg.Matrix
	var rep hfx.Report
	out.build = rec.do(parent, "hfx.build", func() { jm, km, rep = p.b.BuildJK(dens) })
	out.compute, out.reduce = rep.Timings.Get("compute"), rep.Timings.Get("reduce")
	out.computed, out.screened = rep.QuartetsComputed, rep.QuartetsScreened
	out.balance = rep.BalanceRatio
	out.bufferBytes, out.slabBytes = rep.Pool.BufferBytes, rep.Pool.CacheSlabBytes
	fock := p.h.Clone()
	fock.AXPY(1, jm)
	if ax := f.ExactExchangeFraction(); ax != 0 {
		fock.AXPY(-0.5*ax, km)
	}
	if p.grid != nil {
		var xc dft.XCResult
		out.xc = rec.do(parent, "dft.xc", func() { xc = dft.Integrate(f, p.set, p.grid, dens) })
		fock.AXPY(1, xc.V)
	}
	x := linalg.LowdinOrthogonalizer(p.s, 1e-9)
	fp := linalg.Mul(x.T(), linalg.Mul(fock, x))
	fp.Symmetrize()
	out.eigen = rec.do(parent, "linalg.eigen", func() { linalg.EigenSym(fp) })
	return out
}

// eriSweep evaluates every quartet the builder's pair list admits under
// the plain Schwarz test, on one goroutine, and returns the wall, the
// shell-quartet count and the exact primitive-quartet count.
func eriSweep(rec *recorder, parent int, p *prepared) (wall time.Duration, quartets, prims int64) {
	pairs := p.scr.Pairs
	shells := p.set.Shells
	buf := make([]float64, p.eng.MaxERIBufLen())
	sc := integrals.NewScratch()
	wall = rec.do(parent, "integrals.eri_sweep", func() {
		for i, bra := range pairs {
			na, nb := shells[bra.A].NFuncs(), shells[bra.B].NFuncs()
			pa := int64(shells[bra.A].NPrims() * shells[bra.B].NPrims())
			for _, ket := range pairs[:i+1] {
				// Pairs are sorted by descending Q: the first failing ket
				// ends the row, as in the builder's quartet loop.
				if !p.scr.QuartetSurvives(bra, ket) {
					break
				}
				n := na * nb * shells[ket.A].NFuncs() * shells[ket.B].NFuncs()
				p.eng.ERIShellScratch(bra.A, bra.B, ket.A, ket.B, buf[:n], true, nil, sc)
				quartets++
				prims += pa * int64(shells[ket.A].NPrims()*shells[ket.B].NPrims())
			}
		}
	})
	return wall, quartets, prims
}

// pairSurvival returns the kept shell pairs and their share of all pairs.
func pairSurvival(p *prepared) (kept int, share float64) {
	st := p.scr.Stats
	return st.SchwarzSurvived, float64(st.SchwarzSurvived) / math.Max(1, float64(st.TotalPairs))
}

// gridPoints returns the XC grid size (0 without a grid).
func gridPoints(p *prepared) int {
	if p.grid == nil {
		return 0
	}
	return len(p.grid.Points)
}

// sadBuild is the in-process counterpart of an hfxd buildjk job: one
// single-rank Fock build on the SAD density with the server's builder
// options and the given ERI-cache budget. It returns the exchange energy
// the job reports and the builder's cache slab capacity.
func sadBuild(mol *hfxmd.Molecule, basisName string, cacheBudget int64) (exchange float64, slabBytes int64, err error) {
	set, err := hfxmd.BuildBasis(basisName, mol)
	if err != nil {
		return 0, 0, err
	}
	eng := integrals.NewEngine(set)
	opts := hfx.DefaultOptions()
	opts.CacheBudgetBytes = cacheBudget
	b := hfx.NewBuilder(eng, screen.BuildPairList(eng, screen.DefaultOptions()), opts)
	defer b.Close()
	dens := scf.SADDensity(set)
	_, km, rep := b.BuildJK(dens)
	return hfx.ExchangeEnergy(dens, km), rep.Pool.CacheSlabBytes, nil
}

// initialVelocities draws the Maxwell–Boltzmann velocities a RESPA run
// with this seed starts from (the same draw respa.Run makes).
func initialVelocities(mol *hfxmd.Molecule, tempK float64, seed int64) []hfxmd.Vec3 {
	vel, _ := md.DrawVelocities(mol, md.AtomicMasses(mol), tempK, seed)
	return vel
}

// mixEntry is one job type of the hfxd-mix trace.
type mixEntry struct {
	name    string
	weight  float64
	keyPool int
	req     hfxmd.JobRequest
}

// mixMaxIterLift raises the MaxIter of every pooled SCF request. A key
// pool fans an entry out over distinct keys by setting MaxIter to 50 plus
// the key's index, below the program's default of 100; lifted, no request
// caps an SCF under that default, and the keys stay distinct.
const mixMaxIterLift = 50

// mixTrace generates the seeded hfxd-mix trace. Arrival times are
// irrelevant to the closed-loop clients; only the order and the concrete
// requests are used.
func mixTrace(seed int64, clients, events int, mix []mixEntry) ([]traceEvent, error) {
	spec := workload.Spec{Name: "hfxd-mix", Seed: uint64(seed), Clients: clients,
		Phases: []workload.PhaseSpec{{Events: events, RateHz: 1}}}
	for _, m := range mix {
		spec.Mix = append(spec.Mix, workload.MixEntry{Name: m.name, Weight: m.weight, KeyPool: m.keyPool, Request: m.req})
	}
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	out := make([]traceEvent, len(tr.Events))
	for i, ev := range tr.Events {
		req := ev.Request
		if req.Kind == "scf" && req.MaxIter > 0 {
			req.MaxIter += mixMaxIterLift
		}
		out[i] = traceEvent{Mix: ev.Mix, Request: req}
	}
	return out, nil
}

// openMixStore opens the hfxd-mix result store in dir, with cmd/hfxd's
// 64 MiB hot tier and without the fsync after every put. It also returns
// a reader of the store.* counters, which an external store keeps out of
// the server's /metrics. A flush measures the host's disk, not the
// program: it is about a tenth of job_p50_ms on a quiet host, and grows
// with the I/O of whatever else shares that disk.
func openMixStore(dir string) (*hfxmd.Store, func() map[string]float64, error) {
	reg := trace.NewRegistry()
	st, err := hfxmd.OpenStore(hfxmd.StoreOptions{Dir: dir, HotBytes: 64 << 20, NoFsync: true, Registry: reg})
	counters := func() map[string]float64 {
		out := map[string]float64{}
		for _, c := range reg.Counters() {
			out[c.Name] = float64(c.Value)
		}
		return out
	}
	return st, counters, err
}

// serverConfig is cmd/hfxd's default configuration with the worker count
// and result store of the benchmark.
func serverConfig(workers int, st *hfxmd.Store) hfxmd.JobServerConfig {
	return hfxmd.JobServerConfig{
		Calibrator:     steal.NewCalibrator(0.5),
		Workers:        workers,
		QueueCap:       64,
		Store:          st,
		BuilderThreads: 1,
		DefaultTimeout: 2 * time.Minute,
		AgingNSPerSec:  1e8,
	}
}

// submitRetry submits one job with the client's default retry policy on
// busy (429) rejections, returning the attempt count.
func submitRetry(c *hfxmd.JobClient, req hfxmd.JobRequest) (*hfxmd.JobResult, int, error) {
	return c.SubmitRetry(context.Background(), req, server.RetryPolicy{})
}
