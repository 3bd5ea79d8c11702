package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric of the catalog. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. A "job" is the workload's unit of work: one SCF to
// convergence (pbe0-scf), one outer MD step (respa-aimd), one hfxd job
// from submit to result (hfxd-mix).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A layer that is not on a
// workload's path reads 0 there.
var perLayer = []metricDef{
	{"failed_frac", "ratio", "lower"},
	{"job_samples", "count", "higher"},
	{"job_tail_pct", "pct", "higher"},
	{"job_tail_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},

	{"basis.build_s", "s", "lower"},
	{"integrals.onee_s", "s", "lower"},
	{"screen.pairlist_s", "s", "lower"},
	{"screen.pairs_kept", "count", "lower"},
	{"screen.pair_survival", "ratio", "lower"},
	{"hfx.prepare_s", "s", "lower"},
	{"dft.grid_s", "s", "lower"},
	{"dft.grid_points", "count", "lower"},

	{"integrals.eri_sweep_s", "s", "lower"},
	{"integrals.eri_quartets_per_s", "1/s", "higher"},
	{"integrals.prim_quartets", "count", "lower"},

	{"hfx.build_s", "s", "lower"},
	{"hfx.compute_s", "s", "lower"},
	{"hfx.reduce_s", "s", "lower"},
	{"hfx.quartets_computed", "count", "lower"},
	{"hfx.quartets_screened", "count", "higher"},
	{"hfx.useful_ratio", "ratio", "higher"},
	{"hfx.balance", "ratio", "lower"},

	{"dft.xc_s", "s", "lower"},
	{"linalg.eigen_s", "s", "lower"},
	{"scf.iterations", "count", "lower"},
	{"scf.iter_s", "s", "lower"},
	{"scf.unattributed_frac", "ratio", "lower"},

	{"md.forces_s", "s", "lower"},
	{"respa.ref_s", "s", "lower"},
	{"md.scf_iters_per_step", "count", "lower"},
	{"md.displaced_runs_per_step", "count", "lower"},
	{"md.warm_start_ratio", "ratio", "higher"},
	{"md.pairlist_reuse_ratio", "ratio", "higher"},
	{"md.fallbacks", "count", "lower"},

	{"server.queue_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"server.hit_ms", "ms", "lower"},
	{"server.miss_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.rejected_full", "count", "lower"},
	{"server.retries", "count", "lower"},
	{"store.hot_hit_ratio", "ratio", "higher"},
	{"store.puts", "count", "lower"},
	{"store.put_bytes", "bytes", "lower"},
	{"hfx.ericache_hit_ratio", "ratio", "higher"},
	{"mprt.comm_bytes", "bytes", "lower"},
	{"mprt.reduce_steps", "count", "lower"},

	{"hfx.buffer_bytes", "bytes", "lower"},
	{"hfx.cache_slab_bytes", "bytes", "lower"},
	{"store.hot_bytes", "bytes", "lower"},

	{"self.bench_s", "s", "lower"},
	{"self.basis_s", "s", "lower"},
	{"self.integrals_s", "s", "lower"},
	{"self.screen_s", "s", "lower"},
	{"self.hfx_s", "s", "lower"},
	{"self.dft_s", "s", "lower"},
	{"self.linalg_s", "s", "lower"},
	{"self.scf_s", "s", "lower"},
	{"self.md_s", "s", "lower"},
	{"self.respa_s", "s", "lower"},
	{"self.server_s", "s", "lower"},
}

// selfLayers are the span layers whose self time is reported.
var selfLayers = []string{"bench", "basis", "integrals", "screen", "hfx", "dft", "linalg", "scf", "md", "respa", "server"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encodeResult renders the result line, requiring values to hold exactly
// the catalog's names, each a finite number.
func encodeResult(correct bool, attempted, failed int, catalog []metricDef, values map[string]float64) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range catalog {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(catalog) {
		var extra []string
		for name := range values {
			if _, ok := r.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics outside the catalog: %v", extra)
	}
	return json.Marshal(r)
}
