// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the answers, and prints every metric
// by name with its unit; the last line of standard output is the JSON
// result. See README.md for the workloads and what each metric predicts.
//
//	bash e2ebench/run.sh --workload pbe0-scf --seed 1 --seconds 30 --trace 0
//
// With --trace 1 the workload runs twice, untraced then traced, and the
// traced pass is followed by probes that time each layer on the
// workload's own converged inputs; the result then holds the per-layer
// metrics and the spans are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// pass is one measured execution of a workload.
type pass struct {
	seed int64
	dur  time.Duration
	tmp  string    // directory for temporary stores
	rec  *recorder // nil on an untraced pass
	root int       // the pass's root span
}

// passResult is what a workload reports for one pass.
type passResult struct {
	attempted, failed int
	setup             []time.Duration // set-up samples
	jobs              []time.Duration // wall per unit of work
	// rates are jobs per second over windows of the run: each job of a
	// serial workload, so one slow job moves jobs_per_s, their median, no
	// more than it moves job_p50_ms; the whole serving time of a
	// concurrent one.
	rates    []float64
	layers   map[string]float64
	details  map[string]any
	problems []string // failed checks, for the log
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(p *pass) (*passResult, error)

var workloads = map[string]workloadFunc{
	"pbe0-scf":   pbe0SCF,
	"respa-aimd": respaAIMD,
	"hfxd-mix":   hfxdMix,
}

func main() {
	name := flag.String("workload", "", "workload: pbe0-scf, respa-aimd or hfxd-mix")
	seed := flag.Int64("seed", 1, "workload seed (drives the hfxd-mix trace and the respa-aimd velocities)")
	secs := flag.Int("seconds", 30, "measured seconds per pass")
	traced := flag.Int("trace", 0, "1 runs an untraced and a traced pass and prints per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps and temporary stores")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*secs)*time.Second, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, traced bool, out string) error {
	wl, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (want one of %v)", name, names)
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	untraced, err := wl(&pass{seed: seed, dur: dur, tmp: tmp})
	if err != nil {
		return err
	}
	report(name, seed, "untraced", untraced)
	attempted, failed := untraced.attempted, untraced.failed
	values := map[string]float64{}
	catalog := endToEnd
	if !traced {
		values["setup_s"] = median(seconds(untraced.setup))
		values["job_p50_ms"] = median(millis(untraced.jobs))
		values["job_p90_ms"] = quantile(millis(untraced.jobs), 0.9)
		values["jobs_per_s"] = median(untraced.rates)
		if values["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return err
		}
	} else {
		catalog = perLayer
		runID := fmt.Sprintf("%s-seed%d-%d", name, seed, time.Now().UnixNano())
		rec := newRecorder(runID)
		root := rec.begin(0, "bench.pass")
		tr, err := wl(&pass{seed: seed, dur: dur, tmp: tmp, rec: rec, root: root})
		rec.end(root)
		if err != nil {
			return err
		}
		report(name, seed, "traced", tr)
		attempted += tr.attempted
		failed += tr.failed
		for k, v := range tr.layers {
			values[k] = v
		}
		jobsMS := millis(tr.jobs)
		values["failed_frac"] = ratio(float64(failed), float64(attempted))
		values["job_samples"] = float64(len(tr.jobs))
		values["job_tail_pct"], values["job_tail_ms"] = 0, 0
		if pct, ok := tailPercentile(len(jobsMS)); ok {
			values["job_tail_pct"] = float64(pct)
			values["job_tail_ms"] = quantile(jobsMS, float64(pct)/100)
		}
		values["trace.overhead_frac"] = median(jobsMS)/median(millis(untraced.jobs)) - 1
		spans := rec.snapshot()
		self := selfTimes(spans)
		for _, l := range selfLayers {
			values["self."+l+"_s"] = self[l]
		}
		path, err := rec.write(filepath.Join(out, "spans"))
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	line, err := encodeResult(failed == 0 && attempted > 0, attempted, failed, catalog, values)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed their checks", failed, attempted)
	}
	return nil
}

// report prints a pass's details and failed checks ahead of the result.
func report(name string, seed int64, kind string, r *passResult) {
	d := map[string]any{"workload": name, "pass": kind, "seed": seed,
		"attempted": r.attempted, "failed": r.failed, "jobs": len(r.jobs)}
	if pct, ok := tailPercentile(len(r.jobs)); ok {
		d["tail_percentile"] = pct
	}
	for k, v := range r.details {
		d[k] = v
	}
	b, _ := json.Marshal(d) // plain values; cannot fail
	fmt.Println(string(b))
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kilobytes
}
