package hfx

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hfxmd/internal/basis"
	"hfxmd/internal/integrals"
	"hfxmd/internal/linalg"
	"hfxmd/internal/mprt"
	"hfxmd/internal/qpx"
	"hfxmd/internal/sched"
	"hfxmd/internal/screen"
	"hfxmd/internal/steal"
	"hfxmd/internal/trace"
)

// Options configures a Builder. The zero value (after DefaultOptions'
// algorithm choices) is a single-rank build on GOMAXPROCS threads.
type Options struct {
	// Ranks is the number of mprt ranks; 0 and 1 both mean one rank and
	// no mprt world. Ranks > 1 requires Threads×Units to be a power of
	// two and disables the semi-direct ERI cache.
	Ranks int
	// Threads is the number of worker goroutines per rank ("hardware
	// threads" in the paper's terms). Zero means GOMAXPROCS on one rank
	// and 1 per rank otherwise.
	Threads int
	// Units over-decomposes each thread into steal units: placement
	// balances the tasks over Ranks×Threads×Units slots (0 means 1).
	Units int
	// Schedule selects the mprt collective schedule when Ranks > 1.
	Schedule mprt.Schedule
	// Steal lets a worker whose rank's deque ran dry take the cheapest
	// outstanding unit of another rank, and lets a moved Calibrator epoch
	// re-place the slots before the next build. Off, placement is fixed.
	Steal bool
	// Seed drives the rank-count-independent victim probe order.
	Seed uint64
	// Balancer selects the static load-balancing algorithm. The paper's
	// scheme is sched.LPT; sched.Block reproduces the naive layout.
	Balancer sched.Algorithm
	// Granule is the target task cost passed to GenerateTasks (0 = auto).
	Granule float64
	// DensityWeighted enables the P-weighted Schwarz quartet test, which
	// tightens screening as SCF converges.
	DensityWeighted bool
	// Vector turns on the QPX-structured batched kernel. The flag is
	// scoped to this builder: two builders sharing one integrals.Engine
	// may disagree on it without affecting each other.
	Vector bool
	// CacheBudgetBytes enables semi-direct builds: up to this many bytes
	// of surviving ERI quartet blocks are cached on first evaluation and
	// replayed (re-contracted against the new density, skipping integral
	// evaluation) on later builds. Zero disables the cache (fully direct).
	// Admission is priority-ordered by Schwarz bound × predicted block
	// cost; see internal/hfx/ericache.go.
	CacheBudgetBytes int64
	// NoEarlyExit disables the sorted-pair early exit in the quartet loop
	// (the ket list is sorted by descending Q, so a failed Schwarz product
	// normally terminates the whole ket range). Ablation/testing knob; the
	// results are bitwise identical either way.
	NoEarlyExit bool
	// Calibrator, when non-nil, makes the pool time every task it executes
	// and fold (work class, raw predicted cost, measured wall) samples into
	// the calibrator's per-class correction factors. With Steal on, the
	// placement uses the calibrated costs. The hot path stays untimed when
	// nil.
	Calibrator *steal.Calibrator
	// Noise optionally distorts the placement model and slows a straggler
	// rank (see steal.NoisePlan). It never touches the arithmetic, but a
	// noisy placement groups tasks differently, so bits match a noise-free
	// build only at zero noise.
	Noise *steal.NoisePlan
	// FaultPlan optionally kills one rank during one build's compute
	// phase, exercising the restart path (nil injects nothing).
	FaultPlan *RankFaultPlan
}

// RankFaultPlan kills rank Rank at the start of the Build-th BuildJK
// (1-based; 0 disables): its workers return without touching a unit. The
// builder then re-executes the dead rank's units and runs the reduction
// with every rank alive, so the recovered build equals a fault-free one
// bit for bit.
type RankFaultPlan struct {
	Rank  int
	Build int
}

// DefaultOptions returns the paper's production configuration.
func DefaultOptions() Options {
	return Options{
		Balancer:        sched.LPT,
		DensityWeighted: true,
		Vector:          true,
	}
}

// BaselineOptions reproduces the "directly comparable approach": naive
// block distribution of un-chunked pair work, no density weighting, no
// vectorization.
func BaselineOptions() Options {
	return Options{
		Balancer:        sched.Block,
		DensityWeighted: false,
		Vector:          false,
		Granule:         1e18, // one task per bra pair: no chunking
	}
}

// Report describes one Fock-build execution.
type Report struct {
	NTasks           int
	QuartetsComputed int64
	QuartetsScreened int64
	// BalanceRatio and TheoreticalEff describe the slot placement under
	// the placement model (max/mean and mean/max slot load).
	BalanceRatio    float64
	TheoreticalEff  float64
	Wall            time.Duration
	ReduceDepth     int
	LaneUtilization float64 // 0 when Vector is off
	ScreeningStats  screen.Stats
	TaskCostStats   sched.CostStats
	// Timings charges wall-clock to the per-build phases ("zero",
	// "compute", "reduce"). The timer is owned by the builder's pool and
	// is reset at the start of every BuildJK, so the snapshot is valid
	// until the next build.
	Timings *trace.Timer
	// Metrics is the builder's lifetime metrics registry: buffer
	// allocation counts and bytes, build and reuse counts, cumulative
	// zeroing time, the screening wall time, and the steal.* and mprt.*
	// traffic counters. Counters persist across builds (only the Timer
	// inside is per-build).
	Metrics *trace.Registry
	// Pool summarises the persistent worker pool's state.
	Pool PoolStats
	// Cache summarises the semi-direct ERI block cache for this build.
	// Cache.Enabled is false for fully direct builders.
	Cache CacheStats
	// Ranks is the per-rank view of the build. It is owned by the builder
	// and, like Timings, valid until the next build.
	Ranks *RankReport
}

// RankReport is the per-rank section of a Report: where the compute and
// communication walls went, what the collectives moved, and what the
// stealing and calibration did during the build.
type RankReport struct {
	// Compute is the wall of the units each rank executed, straggler
	// delay included, charged to the rank that ran them. Comm is each
	// rank's wall in the ReduceScatter+Allgatherv (zero on one rank).
	Compute []time.Duration
	Comm    []time.Duration

	// Collective traffic summed over ranks, including the return of
	// migrated unit partials to their home rank.
	CommBytes int64
	Sends     int64
	Hops      int64

	// MeasuredSteps counts the collective schedule steps the build
	// executed; PredictedSteps is the analytic count for the same shape
	// and schedule (3·L+1 for L tree levels, 0 on one rank), the quantity
	// the bgq machine model prices.
	MeasuredSteps  int64
	PredictedSteps int

	// Loads is the per-rank cost under the placement model.
	// BalancePredicted is max/mean of Loads, BalanceMeasured max/mean of
	// Compute, so mispredict damage shows as the two diverging.
	Loads            []float64
	BalancePredicted float64
	BalanceMeasured  float64

	// Restarts counts ranks killed by the FaultPlan whose units were
	// re-executed during this build.
	Restarts int
	// Rebalanced reports whether this build re-placed the slots from a
	// moved calibrator epoch.
	Rebalanced bool

	// Steal traffic of this build (deltas of the lifetime steal.*
	// counters).
	StealsSucceeded int64
	Migrated        int64
	IdleReclaimed   time.Duration

	// Calibration over this build's task observations (zero without a
	// calibrator): the mean |measured − prediction| / prediction of the
	// calibrated and of the raw model, and the lifetime sample count.
	CalibErr          float64
	CalibRawErr       float64
	CalibObservations int64
}

// PoolStats describes the persistent worker pool behind a Builder.
type PoolStats struct {
	// Workers is the number of persistent worker goroutines.
	Workers int
	// BuffersAllocated counts the long-lived buffers the pool owns
	// (per-slot J/K accumulators, per-worker ERI blocks, and the rank
	// staging buffers), all allocated once in NewBuilder.
	BuffersAllocated int64
	// BufferBytes is the total size of those buffers.
	BufferBytes int64
	// Builds is the number of BuildJK calls served so far.
	Builds int64
	// ReuseHits counts builds that reused the pool's buffers (every
	// build after the first).
	ReuseHits int64
	// ZeroTime is the cumulative CPU time workers spent zeroing their
	// accumulators across all builds (summed over workers).
	ZeroTime time.Duration
	// CacheSlabBytes is the payload capacity of the semi-direct ERI cache
	// slabs (0 when the cache is disabled). Included in BufferBytes.
	CacheSlabBytes int64
}

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("tasks=%d quartets=%d screened=%d balance=%.4f wall=%v reduce=%d lanes=%.2f",
		r.NTasks, r.QuartetsComputed, r.QuartetsScreened, r.BalanceRatio, r.Wall, r.ReduceDepth, r.LaneUtilization)
}

// PhaseTable renders a per-phase accounting table: the wall-clock phases
// of the build followed by the pool's lifetime counters.
func (r Report) PhaseTable() string {
	var sb strings.Builder
	if r.Timings != nil {
		fmt.Fprintf(&sb, "  %-22s %14s\n", "phase", "time")
		for _, p := range r.Timings.Phases() {
			fmt.Fprintf(&sb, "  %-22s %14v\n", p.Name, p.D)
		}
	}
	if r.Metrics != nil {
		fmt.Fprintf(&sb, "  %-22s %14s\n", "counter", "value")
		for _, c := range r.Metrics.Counters() {
			fmt.Fprintf(&sb, "  %-22s %14d\n", c.Name, c.Value)
		}
	}
	return sb.String()
}

// Builder evaluates Coulomb (J) and exchange (K) matrices with the
// paper's task-parallel scheme. It is created once per geometry and
// reused across SCF/MD iterations; BuildJK is safe to call repeatedly
// but not concurrently with itself.
//
// A build runs three stages:
//
//  1. Placement: the screened tasks are balanced (Options.Balancer) over
//     Ranks×Threads×Units slots; slot s is homed on rank s/(Threads×Units).
//  2. Execution: each persistent worker drains its rank's deque of slots
//     (most expensive first) and, with Steal on, steals the cheapest slot
//     of another rank once its own deque is empty. Every slot runs
//     sequentially into its own J/K accumulators wherever it executes.
//  3. Reduction: the slot partials are summed along the canonical binary
//     tree over slot indices. Strides inside a rank merge in the pool;
//     with Ranks > 1 the strides above go through mprt ReduceScatter +
//     Allgatherv, whose canonical rank tree continues the same tree.
//
// Bitwise contract: J and K depend only on the placement, never on which
// worker or rank ran a slot, so every build with the same slot count and
// placement model — any Ranks/Threads/Units split, either Schedule,
// stealing on or off, with or without a recovered rank fault — is
// identical bit for bit to a single-rank build with Threads = slots.
//
// The builder owns a persistent worker pool: worker goroutines, their
// J/K accumulation matrices, ERI scratch and deques are all allocated
// once in NewBuilder and reused (zeroed, not reallocated) by every
// single-rank BuildJK, so the steady-state build performs no heap
// allocation. Call Close when done to stop the workers; a finalizer stops
// them if the builder is garbage-collected without Close.
type Builder struct {
	Eng  *integrals.Engine
	Scr  *screen.Result
	Opts Options

	pl        *pool
	closeOnce sync.Once
}

// pool holds everything the persistent workers touch. The workers
// reference the pool, not the Builder, so an abandoned Builder can still
// be collected and its finalizer can shut the workers down.
type pool struct {
	eng       *integrals.Engine
	scr       *screen.Result
	opts      Options
	tasks     []Task
	costs     []float64
	classes   []int // work class per task; nil without Calibrator and Noise
	costStats sched.CostStats

	// Placement: the slot assignment, its steal plan and deques, and the
	// calibrator epoch it was computed under.
	asn         *sched.Assignment
	plan        *steal.Plan
	deques      *steal.Deques
	placedEpoch uint64

	threads int // workers per rank
	spr     int // slots per rank
	nw      int // workers: Ranks×Threads
	jBufs   []*linalg.Matrix
	kBufs   []*linalg.Matrix
	eriBufs [][]float64
	scratch []*integrals.Scratch
	reg     *trace.Registry
	cache   *eriCache // nil when Options.CacheBudgetBytes admitted nothing

	// Ranks > 1 only: the mprt world, the fused [J‖K] staging buffer per
	// rank with its reduce-scatter segment counts, and the output matrices.
	world      *mprt.World
	counts     []int
	fused      [][]float64
	jOut, kOut *linalg.Matrix

	rep    RankReport
	execNS []atomic.Int64 // per-rank executed unit wall of this build

	// Per-build state, written by the coordinator before workers are
	// woken (the wake-channel send establishes the happens-before edge).
	p        *linalg.Matrix
	pmaxAll  float64    // max |P| over the whole density (density-weighted runs)
	stats    *qpx.Stats // points at qstats when Vector, else nil
	qstats   qpx.Stats
	computed atomic.Int64
	screened atomic.Int64
	phase    int
	stride   int
	dead     int // rank killed by the FaultPlan this build, or -1

	// Per-build cache traffic, folded into the ericache.* counters and
	// Report.Cache at the end of BuildJK.
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheFillBytes atomic.Int64

	// Lifetime counter values at the start of the build, for deltas.
	steal0   [3]int64
	traffic0 [3]int64 // bytes, sends, hops over all ranks
	steps0   int64

	wake []chan struct{}
	done sync.WaitGroup
	quit chan struct{}
}

const (
	phaseCompute = iota
	phaseReduce
)

// stealCounters are the steal.* counters whose per-build deltas land in
// RankReport, in steal0 order.
var stealCounters = [3]string{steal.CounterSucceeded, steal.CounterMigrated,
	steal.CounterReclaimedNS}

// NewBuilder prepares the task decomposition and placement, allocates
// the per-slot and per-worker buffers, creates the mprt world when
// Ranks > 1, and starts the persistent worker pool. It panics when
// Ranks > 1 and Threads×Units is not a power of two: the in-rank
// reduction trees then would not line up with the cross-rank tree.
func NewBuilder(eng *integrals.Engine, scr *screen.Result, opts Options) *Builder {
	opts.Ranks = max(opts.Ranks, 1)
	opts.Units = max(opts.Units, 1)
	if opts.Threads <= 0 {
		opts.Threads = 1
		if opts.Ranks == 1 {
			opts.Threads = runtime.GOMAXPROCS(0)
		}
	}
	spr := opts.Threads * opts.Units
	if opts.Ranks > 1 {
		if spr&(spr-1) != 0 {
			panic(fmt.Sprintf("hfx: Ranks=%d needs Threads×Units a power of two, got Threads=%d Units=%d",
				opts.Ranks, opts.Threads, opts.Units))
		}
		opts.CacheBudgetBytes = 0 // the semi-direct cache stays single-rank
	}
	b := &Builder{Eng: eng, Scr: scr, Opts: opts}
	b.pl = newPool(eng, scr, opts, spr)
	runtime.SetFinalizer(b, (*Builder).Close)
	return b
}

// newPool places the tasks, allocates the buffers and starts the workers.
func newPool(eng *integrals.Engine, scr *screen.Result, opts Options, spr int) *pool {
	R := opts.Ranks
	pl := &pool{eng: eng, scr: scr, opts: opts, reg: trace.NewRegistry(),
		threads: opts.Threads, spr: spr, nw: R * opts.Threads, dead: -1}
	cost := DefaultCostModel()
	pl.tasks = GenerateTasks(eng.Basis, scr.Pairs, cost, opts.Granule)
	pl.costs = TaskCosts(pl.tasks)
	pl.costStats = sched.Summarize(pl.costs)
	if opts.Calibrator != nil || opts.Noise != nil {
		pl.classes = TaskClasses(eng.Basis, scr.Pairs, pl.tasks)
	}
	pl.place()

	nw, ns := pl.nw, R*spr
	n := eng.Basis.NBasis
	pl.jBufs = make([]*linalg.Matrix, ns)
	pl.kBufs = make([]*linalg.Matrix, ns)
	for s := 0; s < ns; s++ {
		pl.jBufs[s] = linalg.NewSquare(n)
		pl.kBufs[s] = linalg.NewSquare(n)
	}
	pl.eriBufs = make([][]float64, nw)
	pl.scratch = make([]*integrals.Scratch, nw)
	buflen := eng.MaxERIBufLen()
	for w := 0; w < nw; w++ {
		pl.eriBufs[w] = make([]float64, buflen)
		pl.scratch[w] = integrals.NewScratch()
	}
	pl.jOut, pl.kOut = pl.jBufs[0], pl.kBufs[0]
	if opts.Vector {
		pl.stats = &pl.qstats
	}
	if opts.CacheBudgetBytes > 0 {
		pl.cache = newERICache(eng.Basis, scr.Pairs, pl.tasks, pl.asn,
			cost, opts.CacheBudgetBytes)
	}
	pl.rep.Compute = make([]time.Duration, R)
	pl.rep.Comm = make([]time.Duration, R)
	pl.execNS = make([]atomic.Int64, R)

	// Pre-create every counter the hot path touches so steady-state
	// lookups never insert into the registry map.
	pl.reg.Counter("pool.buffers_alloc").Add(int64(2*ns + nw))
	pl.reg.Counter("pool.buffer_bytes").Add(int64((2*ns*n*n + nw*buflen) * 8))
	pl.reg.Counter("pool.builds")
	pl.reg.Counter("pool.reuse_hits")
	pl.reg.Counter("pool.zero_ns")
	pl.reg.Counter("screen.wall_ns").Add(scr.Stats.Wall().Nanoseconds())
	if pl.cache != nil {
		pl.reg.Counter("pool.buffers_alloc").Add(int64(len(pl.cache.shards)))
		pl.reg.Counter("pool.buffer_bytes").Add(pl.cache.slabBytes())
		pl.reg.Counter("ericache.hits")
		pl.reg.Counter("ericache.misses")
		pl.reg.Counter("ericache.bytes")
		pl.reg.Counter("ericache.evictions")
		pl.reg.Counter("ericache.admitted").Add(pl.cache.admitted)
	}
	if R > 1 {
		world, err := mprt.NewWorld(mprt.Options{Ranks: R, Schedule: opts.Schedule, Registry: pl.reg})
		if err != nil {
			panic(fmt.Sprintf("hfx: %v", err))
		}
		pl.world = world
		pl.rep.PredictedSteps = 3*world.PredictedReduceSteps() + 1
		pl.counts = make([]int, R)
		for r := range pl.counts {
			pl.counts[r] = 2 * n * n / R
			if r < 2*n*n%R {
				pl.counts[r]++
			}
		}
		pl.fused = make([][]float64, R)
		for r := range pl.fused {
			pl.fused[r] = make([]float64, 2*n*n)
		}
		pl.jOut, pl.kOut = linalg.NewSquare(n), linalg.NewSquare(n)
		pl.reg.Counter("pool.buffers_alloc").Add(int64(R + 2))
		pl.reg.Counter("pool.buffer_bytes").Add(int64((R + 1) * 2 * n * n * 8))
		pl.reg.Counter("mprt.rank_restarts")
	}

	pl.wake = make([]chan struct{}, nw)
	pl.quit = make(chan struct{})
	for w := 0; w < nw; w++ {
		pl.wake[w] = make(chan struct{}, 1)
		go pl.worker(w)
	}
	return pl
}

// place computes the slot assignment under the current placement model
// — raw costs, calibrated when Steal is on, distorted by the noise plan —
// and rebuilds the steal plan and deques from it.
func (pl *pool) place() {
	placed := pl.costs
	if pl.opts.Steal {
		placed = pl.opts.Calibrator.Scale(pl.classes, placed)
	}
	placed = pl.opts.Noise.Perturb(placed, pl.classes)
	pl.asn = sched.Balance(pl.opts.Balancer, placed, pl.opts.Ranks*pl.spr)
	plan, err := steal.NewPlan(pl.asn, pl.opts.Ranks, pl.opts.Seed)
	if err != nil {
		panic(err) // unreachable: the slot count is a multiple of Ranks
	}
	pl.plan = plan
	pl.deques = steal.NewDeques(plan, pl.reg)
	pl.placedEpoch = pl.opts.Calibrator.Epoch()
	pl.rep.Loads = plan.PredLoads()
	pl.rep.BalancePredicted = maxMeanRatio(pl.rep.Loads)
}

// Close stops the persistent worker pool and the mprt world. It is
// idempotent and must not be called concurrently with BuildJK. A
// finalizer calls Close if the builder is collected without it, so
// forgetting Close leaks nothing permanently — but calling it promptly
// releases the goroutines sooner.
func (b *Builder) Close() {
	b.closeOnce.Do(func() {
		close(b.pl.quit)
		if b.pl.world != nil {
			b.pl.world.Close()
		}
	})
	runtime.SetFinalizer(b, nil)
}

// Tasks exposes the generated task list (read-only) for the machine
// simulator.
func (b *Builder) Tasks() []Task { return b.pl.tasks }

// Assignment exposes the current slot placement (read-only).
func (b *Builder) Assignment() *sched.Assignment { return b.pl.asn }

// worker is the persistent loop of one pool worker. It sleeps on its
// wake channel, executes the phase the coordinator selected, and
// signals completion through the pool WaitGroup.
func (pl *pool) worker(w int) {
	for {
		select {
		case <-pl.quit:
			return
		case <-pl.wake[w]:
		}
		switch pl.phase {
		case phaseCompute:
			pl.compute(w)
		case phaseReduce:
			pl.reduce(w)
		}
		pl.done.Done()
	}
}

// broadcast wakes every worker for the current phase and waits for all
// of them to finish it.
func (pl *pool) broadcast() {
	pl.done.Add(pl.nw)
	for w := 0; w < pl.nw; w++ {
		pl.wake[w] <- struct{}{}
	}
	pl.done.Wait()
}

// compute drains this worker's rank deque, then — with Steal on — takes
// units from other ranks until every deque is empty. A rank the
// FaultPlan killed this build executes nothing.
func (pl *pool) compute(w int) {
	r := w / pl.threads
	if r == pl.dead {
		return
	}
	for {
		u, stolen := pl.deques.PopOwn(r), false
		if u < 0 && pl.opts.Steal {
			u, stolen = pl.deques.Steal(r), true
		}
		if u < 0 {
			return
		}
		pl.runUnit(w, r, u, stolen)
		// Yield between units so the ranks' workers interleave even on a
		// single hardware thread; otherwise one rank can drain every deque
		// before the others run at all. Bits are unaffected.
		runtime.Gosched()
	}
}

// runUnit zeroes slot u's accumulators and runs its tasks into them on
// worker w of rank r, charging the wall (and any straggler delay) to r.
func (pl *pool) runUnit(w, r, u int, stolen bool) {
	t0 := time.Now()
	jw, kw := pl.jBufs[u], pl.kBufs[u]
	jw.Zero()
	kw.Zero()
	dz := time.Since(t0)
	pl.reg.Counter("pool.zero_ns").Add(dz.Nanoseconds())
	pl.reg.Timer.Charge("zero", dz)
	for _, ti := range pl.plan.Units[u].Tasks {
		pl.runTaskObserved(ti, jw, kw, pl.eriBufs[w], pl.scratch[w])
	}
	wall := time.Since(t0)
	if stolen {
		pl.reg.Counter(steal.CounterReclaimedNS).Add(wall.Nanoseconds())
	}
	if d := pl.opts.Noise.StragglerDelay(r, wall); d > 0 {
		time.Sleep(d)
		wall += d
	}
	pl.execNS[r].Add(wall.Nanoseconds())
}

// runTaskObserved wraps runTask with a per-task wall measurement folded
// into the calibrator as a (class, raw predicted, measured) sample. With
// no calibrator the hot path stays untimed.
func (pl *pool) runTaskObserved(ti int, jw, kw *linalg.Matrix, buf []float64, sc *integrals.Scratch) {
	if pl.opts.Calibrator == nil {
		pl.runTask(ti, jw, kw, buf, sc)
		return
	}
	t0 := time.Now()
	pl.runTask(ti, jw, kw, buf, sc)
	pl.opts.Calibrator.Observe(pl.classes[ti], pl.tasks[ti].Cost, float64(time.Since(t0).Nanoseconds()))
}

// reduce performs this worker's share of one level of the canonical
// binary tree over slots: slot x absorbs slot x+stride for every tree
// parent x at this level, parents dealt round-robin to the workers.
func (pl *pool) reduce(w int) {
	s, ns := pl.stride, len(pl.jBufs)
	for x := 2 * s * w; x+s < ns; x += 2 * s * pl.nw {
		pl.jBufs[x].AXPY(1, pl.jBufs[x+s])
		pl.kBufs[x].AXPY(1, pl.kBufs[x+s])
	}
}

// BuildJK computes the Coulomb and exchange matrices for density P:
//
//	J[μν] = Σ_{λσ} P[λσ] (μν|λσ),   K[μν] = Σ_{λσ} P[λσ] (μλ|νσ).
//
// Both are assembled in one pass over the screened canonical quartets.
//
// The returned matrices alias the builder's persistent buffers: they are
// valid until the next BuildJK on this builder, which overwrites them.
// Callers that need both an old and a new result simultaneously must
// copy (linalg.Matrix.Clone or CopyFrom) before rebuilding.
func (b *Builder) BuildJK(p *linalg.Matrix) (j, k *linalg.Matrix, rep Report) {
	pl := b.pl
	start := time.Now()
	pl.prepareBuild(p)

	pl.phase = phaseCompute
	t0 := time.Now()
	pl.broadcast()
	if pl.dead >= 0 {
		// Restart: the dead rank's units are still on its deque; run them
		// now. Each unit still executes exactly once into its own buffers.
		pl.dead = -1
		pl.rep.Restarts++
		pl.reg.Counter("mprt.rank_restarts").Add(1)
		pl.broadcast()
	}
	pl.reg.Timer.Charge("compute", time.Since(t0))

	// Hierarchical pairwise reduction (binary tree over slots), mirroring
	// the machine-scale K allreduce over the torus.
	t0 = time.Now()
	if pl.world != nil {
		pl.returnMigrated()
	}
	pl.phase = phaseReduce
	for pl.stride = 1; pl.stride < pl.spr; pl.stride *= 2 {
		pl.broadcast()
	}
	if pl.world != nil {
		pl.collective()
	}
	pl.reg.Timer.Charge("reduce", time.Since(t0))
	pl.p = nil

	rep = pl.buildReport(start)
	// Keep the builder (and thus its finalizer) from being collected
	// while a build is mid-flight on the pool it owns.
	runtime.KeepAlive(b)
	return pl.jOut, pl.kOut, rep
}

// returnMigrated ships every stolen unit's J and K partials from the rank
// that ran it back to its home rank over mprt point-to-point, in global
// unit order. The world is in-process and the executor was the unit's
// sole writer, so the transfer is zero-copy; bytes and hops are still
// accounted as if the partials crossed the torus.
func (pl *pool) returnMigrated() {
	for u := range pl.plan.Units {
		ex, home := pl.deques.Executor(u), pl.plan.Units[u].Home
		if ex == home {
			continue
		}
		for tag, m := range [2]*linalg.Matrix{pl.jBufs[u], pl.kBufs[u]} {
			pl.world.Comm(ex).Send(home, 2*u+tag, m.Data)
			pl.world.Comm(home).Recv(ex, 2*u+tag)
		}
	}
}

// collective sums the ranks' in-pool partials (slot r×spr of rank r) as
// one fused [J‖K] vector with ReduceScatter + Allgatherv.
func (pl *pool) collective() {
	nn := len(pl.jOut.Data)
	_ = pl.world.Run(func(c *mprt.Comm) error { // rank functions never fail
		r := c.Rank()
		t0 := time.Now()
		fused := pl.fused[r]
		copy(fused[:nn], pl.jBufs[r*pl.spr].Data)
		copy(fused[nn:], pl.kBufs[r*pl.spr].Data)
		full := c.Allgatherv(c.ReduceScatter(fused, pl.counts), pl.counts)
		pl.rep.Comm[r] = time.Since(t0)
		if r == 0 {
			copy(pl.jOut.Data, full[:nn])
			copy(pl.kOut.Data, full[nn:])
		}
		return nil
	})
}

// prepareBuild resets the pool's per-build state for density P: timers,
// traffic counters, the deques (re-placing first when Steal is on and
// the calibrator moved), the shared density pointer and the global
// density bound.
func (pl *pool) prepareBuild(p *linalg.Matrix) {
	n := pl.eng.Basis.NBasis
	if p.Rows != n || p.Cols != n {
		panic("hfx: density dimension mismatch")
	}
	pl.reg.Timer.Reset()
	builds := pl.reg.Counter("pool.builds")
	builds.Add(1)
	if builds.Value() > 1 {
		pl.reg.Counter("pool.reuse_hits").Add(1)
	}
	pl.rep.Rebalanced = pl.opts.Steal && pl.opts.Calibrator.Epoch() != pl.placedEpoch
	if pl.rep.Rebalanced {
		pl.place()
	}
	pl.deques.Reset()
	pl.opts.Calibrator.BeginWindow()
	if fp := pl.opts.FaultPlan; fp != nil && int64(fp.Build) == builds.Value() &&
		fp.Rank >= 0 && fp.Rank < pl.opts.Ranks {
		pl.dead = fp.Rank
	}
	pl.rep.Restarts = 0
	for r := range pl.execNS {
		pl.execNS[r].Store(0)
	}
	for i, name := range stealCounters {
		pl.steal0[i] = pl.reg.Counter(name).Value()
	}
	pl.steps0 = pl.collectiveSteps()
	pl.traffic0 = pl.traffic()
	pl.p = p
	pl.computed.Store(0)
	pl.screened.Store(0)
	pl.qstats.Reset()
	pl.cacheHits.Store(0)
	pl.cacheMisses.Store(0)
	pl.cacheFillBytes.Store(0)
	pl.pmaxAll = 0
	if pl.opts.DensityWeighted {
		// One pass over P gives a global density bound; with the ket list
		// sorted by descending Q it turns the density-weighted test into a
		// monotone early-exit pre-check (see runTask).
		for _, v := range p.Data {
			if v < 0 {
				v = -v
			}
			if v > pl.pmaxAll {
				pl.pmaxAll = v
			}
		}
	}
}

// collectiveSteps is the lifetime reduce-scatter + allgather step count
// (0 without a world).
func (pl *pool) collectiveSteps() int64 {
	if pl.world == nil {
		return 0
	}
	return pl.reg.Counter("mprt.reducescatter.steps").Value() +
		pl.reg.Counter("mprt.allgatherv.steps").Value()
}

// traffic sums the lifetime bytes, sends and hops of every rank (zero
// without a world).
func (pl *pool) traffic() (t [3]int64) {
	for r := 0; pl.world != nil && r < pl.opts.Ranks; r++ {
		c := pl.world.Comm(r)
		t[0] += c.BytesSent()
		t[1] += c.Sends()
		t[2] += c.HopsSent()
	}
	return t
}

// buildReport assembles the Report for the build cycle that just ran.
func (pl *pool) buildReport(start time.Time) Report {
	builds := pl.reg.Counter("pool.builds")
	rep := Report{
		NTasks:           len(pl.tasks),
		QuartetsComputed: pl.computed.Load(),
		QuartetsScreened: pl.screened.Load(),
		BalanceRatio:     pl.asn.BalanceRatio(),
		TheoreticalEff:   pl.asn.TheoreticalEfficiency(),
		ReduceDepth:      bits.Len(uint(len(pl.jBufs) - 1)),
		ScreeningStats:   pl.scr.Stats,
		TaskCostStats:    pl.costStats,
		Timings:          pl.reg.Timer,
		Metrics:          pl.reg,
		Pool: PoolStats{
			Workers:          pl.nw,
			BuffersAllocated: pl.reg.Counter("pool.buffers_alloc").Value(),
			BufferBytes:      pl.reg.Counter("pool.buffer_bytes").Value(),
			Builds:           builds.Value(),
			ReuseHits:        pl.reg.Counter("pool.reuse_hits").Value(),
			ZeroTime:         time.Duration(pl.reg.Counter("pool.zero_ns").Value()),
		},
		Ranks: &pl.rep,
	}
	if pl.opts.Vector {
		rep.LaneUtilization = pl.qstats.Utilization()
	}
	rep.Cache.BudgetBytes = pl.opts.CacheBudgetBytes
	if pl.cache != nil {
		pl.reg.Counter("ericache.hits").Add(pl.cacheHits.Load())
		pl.reg.Counter("ericache.misses").Add(pl.cacheMisses.Load())
		pl.reg.Counter("ericache.bytes").Add(pl.cacheFillBytes.Load())
		rep.Cache.Enabled = true
		rep.Cache.UsedBytes = pl.cache.usedBytes
		rep.Cache.AdmittedQuartets = pl.cache.admitted
		rep.Cache.ResidentBlocks = pl.cache.filled.Load()
		rep.Cache.Hits = pl.cacheHits.Load()
		rep.Cache.Misses = pl.cacheMisses.Load()
		rep.Cache.Evictions = pl.cache.evictions.Load()
		rep.Pool.CacheSlabBytes = pl.cache.slabBytes()
	}

	rr := &pl.rep
	for r := range rr.Compute {
		rr.Compute[r] = time.Duration(pl.execNS[r].Load())
	}
	rr.BalanceMeasured = maxMeanRatio(rr.Compute)
	t := pl.traffic()
	rr.CommBytes, rr.Sends, rr.Hops = t[0]-pl.traffic0[0], t[1]-pl.traffic0[1], t[2]-pl.traffic0[2]
	rr.MeasuredSteps = pl.collectiveSteps() - pl.steps0
	var d [3]int64
	for i, name := range stealCounters {
		d[i] = pl.reg.Counter(name).Value() - pl.steal0[i]
	}
	rr.StealsSucceeded, rr.Migrated, rr.IdleReclaimed = d[0], d[1], time.Duration(d[2])
	if cal := pl.opts.Calibrator; cal != nil {
		rr.CalibErr, rr.CalibRawErr, _ = cal.WindowErr()
		rr.CalibObservations = cal.Observations()
	}
	rep.Wall = time.Since(start)
	return rep
}

// maxMeanRatio returns max/mean of v (1 when the sum is not positive).
func maxMeanRatio[T float64 | time.Duration](v []T) float64 {
	var max, sum float64
	for _, x := range v {
		sum += float64(x)
		max = math.Max(max, float64(x))
	}
	if sum <= 0 {
		return 1
	}
	return max / (sum / float64(len(v)))
}

// slot mappings of the 8 index permutations of a quartet (a,b,c,d) that
// leave the integral invariant: position k of the image takes the
// function index of original slot perm[k].
var eriPerms = [8][4]int{
	{0, 1, 2, 3}, // abcd
	{1, 0, 2, 3}, // bacd
	{0, 1, 3, 2}, // abdc
	{1, 0, 3, 2}, // badc
	{2, 3, 0, 1}, // cdab
	{2, 3, 1, 0}, // cdba
	{3, 2, 0, 1}, // dcab
	{3, 2, 1, 0}, // dcba
}

// scatterPerm is one distinct permutation image of a quartet symmetry
// class, prepared for the flat scatter kernel: the image contributes
// J[g(s0),g(s1)] += P[g(s2),g(in)]·v and K[g(s0),g(s2)] += P[g(s1),g(in)]·v,
// where slot in = perm[3] is kept innermost so both updates become dot
// products over a contiguous P row. o0 < o1 < o2 are the remaining slots.
type scatterPerm struct {
	s0, s1, s2, in int
	o0, o1, o2     int
}

// classScatter holds the deduplicated permutation images per quartet
// symmetry class, computed once at package init instead of per quartet per
// build. With canonical pairs (A ≤ B, guaranteed by screen.BuildPairList)
// the duplicate structure of the 8 images depends only on three booleans:
// a==b (bit 0), c==d (bit 1), (a,b)==(c,d) (bit 2).
var classScatter [8][]scatterPerm

func init() {
	for ci := range classScatter {
		// Representative shell tuple for the class: distinct values except
		// for the equalities the class encodes.
		a, b, c, d := 0, 1, 2, 3
		if ci&1 != 0 {
			b = a
		}
		if ci&2 != 0 {
			d = c
		}
		if ci&4 != 0 {
			c, d = a, b
		}
		rep := [4]int{a, b, c, d}
		var images [8][4]int
		nimg := 0
		for _, perm := range eriPerms {
			img := [4]int{rep[perm[0]], rep[perm[1]], rep[perm[2]], rep[perm[3]]}
			dup := false
			for i := 0; i < nimg; i++ {
				if images[i] == img {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			images[nimg] = img
			nimg++
			sp := scatterPerm{s0: perm[0], s1: perm[1], s2: perm[2], in: perm[3]}
			outs := [3]*int{&sp.o0, &sp.o1, &sp.o2}
			oi := 0
			for s := 0; s < 4; s++ {
				if s != sp.in {
					*outs[oi] = s
					oi++
				}
			}
			classScatter[ci] = append(classScatter[ci], sp)
		}
	}
}

// runTask executes one task: loops its quartets, applies the quartet-level
// screen with an early exit over the Q-sorted ket range, fetches or
// evaluates surviving blocks (semi-direct replay when cached), and scatters
// them into the private J/K buffers.
func (pl *pool) runTask(ti int, jw, kw *linalg.Matrix, buf []float64, sc *integrals.Scratch) {
	t := &pl.tasks[ti]
	set := pl.eng.Basis
	p := pl.p
	bra := pl.scr.Pairs[t.Bra]
	var slots []int32
	var shard *cacheShard
	if pl.cache != nil {
		slots = pl.cache.taskSlots[ti]
		shard = &pl.cache.shards[pl.cache.taskShard[ti]]
	}
	dw := pl.opts.DensityWeighted
	noEarly := pl.opts.NoEarlyExit
	for ji := t.KetLo; ji < t.KetHi; ji++ {
		ket := pl.scr.Pairs[ji]
		if dw {
			// The ket range ascends through pairs sorted by descending Q,
			// so the Schwarz product only shrinks: once the conservative
			// global-density bound fails, every remaining quartet fails
			// the (tighter) local test too.
			if !noEarly && !pl.scr.QuartetSurvivesWeighted(bra, ket, pl.pmaxAll) {
				pl.screened.Add(int64(t.KetHi - ji))
				break
			}
			pmax := screen.MaxDensityAbsQuartet(set, p, bra.A, bra.B, ket.A, ket.B)
			if !pl.scr.QuartetSurvivesWeighted(bra, ket, pmax) {
				pl.screened.Add(1)
				continue
			}
		} else if !pl.scr.QuartetSurvives(bra, ket) {
			if noEarly {
				pl.screened.Add(1)
				continue
			}
			pl.screened.Add(int64(t.KetHi - ji))
			break
		}
		pl.computed.Add(1)
		a, b, c, d := bra.A, bra.B, ket.A, ket.B
		if shard != nil {
			if slot := slots[ji-t.KetLo]; slot >= 0 {
				off := shard.offs[slot]
				blk := shard.slab[off : off+int64(shard.lens[slot])]
				if shard.filled[slot] {
					pl.cacheHits.Add(1)
				} else {
					// Fill on first compute: evaluate straight into the
					// slab so the scatter below reads the cached copy.
					pl.eng.ERIShellScratch(a, b, c, d, blk, pl.opts.Vector, pl.stats, sc)
					shard.filled[slot] = true
					pl.cache.filled.Add(1)
					pl.cacheFillBytes.Add(int64(len(blk)) * 8)
					pl.cacheMisses.Add(1)
				}
				scatterBlock(set, a, b, c, d, blk, p, jw, kw)
				continue
			}
			pl.cacheMisses.Add(1)
		}
		blk := buf[:eriBlockLen(set, a, b, c, d)]
		pl.eng.ERIShellScratch(a, b, c, d, blk, pl.opts.Vector, pl.stats, sc)
		scatterBlock(set, a, b, c, d, blk, p, jw, kw)
	}
}

// scatterBlock adds the contributions of the evaluated (ab|cd) block to J
// and K for every distinct permutation image of the quartet's symmetry
// class. The inner loop runs over original slot in = perm[3], which fixes
// the J and K target elements, so both updates reduce to dot products of
// the block row against hoisted P-row slices — no per-element At/Add calls.
func scatterBlock(set *basis.Set, a, b, c, d int, blk []float64,
	p, jw, kw *linalg.Matrix) {
	ci := 0
	if a == b {
		ci |= 1
	}
	if c == d {
		ci |= 2
	}
	if a == c && b == d {
		ci |= 4
	}
	perms := classScatter[ci]

	sha, shb := &set.Shells[a], &set.Shells[b]
	shc, shd := &set.Shells[c], &set.Shells[d]
	offs := [4]int{sha.Index, shb.Index, shc.Index, shd.Index}

	if len(blk) == 1 {
		// ssss fast path: one integral, direct scalar updates.
		v := blk[0]
		for i := range perms {
			sp := &perms[i]
			jw.Row(offs[sp.s0])[offs[sp.s1]] += p.Row(offs[sp.s2])[offs[sp.in]] * v
			kw.Row(offs[sp.s0])[offs[sp.s2]] += p.Row(offs[sp.s1])[offs[sp.in]] * v
		}
		return
	}

	ns := [4]int{sha.NFuncs(), shb.NFuncs(), shc.NFuncs(), shd.NFuncs()}
	st := [4]int{ns[1] * ns[2] * ns[3], ns[2] * ns[3], ns[3], 1}
	for i := range perms {
		sp := &perms[i]
		o0, o1, o2, in := sp.o0, sp.o1, sp.o2, sp.in
		nin, stin, offin := ns[in], st[in], offs[in]
		var g [4]int
		for f0 := 0; f0 < ns[o0]; f0++ {
			g[o0] = offs[o0] + f0
			base0 := f0 * st[o0]
			for f1 := 0; f1 < ns[o1]; f1++ {
				g[o1] = offs[o1] + f1
				base1 := base0 + f1*st[o1]
				for f2 := 0; f2 < ns[o2]; f2++ {
					g[o2] = offs[o2] + f2
					bi := base1 + f2*st[o2]
					pj := p.Row(g[sp.s2])[offin : offin+nin]
					pk := p.Row(g[sp.s1])[offin : offin+nin]
					var js, ks float64
					if stin == 1 {
						for f, v := range blk[bi : bi+nin] {
							js += pj[f] * v
							ks += pk[f] * v
						}
					} else {
						for f := 0; f < nin; f++ {
							v := blk[bi]
							bi += stin
							js += pj[f] * v
							ks += pk[f] * v
						}
					}
					jw.Row(g[sp.s0])[g[sp.s1]] += js
					kw.Row(g[sp.s0])[g[sp.s2]] += ks
				}
			}
		}
	}
}

// ExchangeEnergy returns the exchange energy contribution for a
// closed-shell density: E_K = −¼ Σ_{μν} P[μν]·K[μν].
func ExchangeEnergy(p, k *linalg.Matrix) float64 {
	return -0.25 * linalg.TraceMul(p, k)
}

// CoulombEnergy returns E_J = ½ Σ P∘J.
func CoulombEnergy(p, j *linalg.Matrix) float64 {
	return 0.5 * linalg.TraceMul(p, j)
}
