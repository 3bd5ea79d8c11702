package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hfxmd"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, pct int }{{11, 9}, {20, 50}, {100, 90}, {240, 95}, {480, 97}, {1000, 99}} {
		pct, ok := tailPercentile(c.n)
		if !ok || pct != c.pct {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", c.n, pct, ok, c.pct)
		}
	}
	for _, n := range []int{0, 1, 10} {
		if _, ok := tailPercentile(n); ok {
			t.Errorf("tailPercentile(%d) found a percentile with ten samples beyond it", n)
		}
	}
	// The rule itself: at least ten samples beyond the percentile, fewer
	// than ten beyond the next one.
	for n := 11; n <= 5000; n++ {
		pct, _ := tailPercentile(n)
		if beyond := n * (100 - pct); beyond < 10*100 {
			t.Fatalf("n=%d: p%d leaves %.2f samples beyond it", n, pct, float64(beyond)/100)
		}
		if pct < 99 && n*(100-pct-1) >= 10*100 {
			t.Fatalf("n=%d: p%d is not the highest qualifying percentile", n, pct)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
}

func TestClientCountNeverExceedsNproc(t *testing.T) {
	for nproc := 1; nproc <= 8; nproc++ {
		for want := 0; want <= 8; want++ {
			if c := clientCount(want, nproc); c > nproc || c < 1 {
				t.Errorf("clientCount(%d, %d) = %d", want, nproc, c)
			}
		}
	}
	if c := clientCount(mixClients, runtime.NumCPU()); c > runtime.NumCPU() {
		t.Errorf("hfxd-mix would run %d clients on %d CPUs", c, runtime.NumCPU())
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	gen := func(seed int64) []traceEvent {
		tr, err := mixTrace(seed, 2, 2*mixRoundEvents, jobMix)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b, c := gen(7), gen(7), gen(8)
	if digest(a) != digest(b) {
		t.Error("the same seed gave two different hfxd-mix traces")
	}
	if digest(a) == digest(c) || reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same hfxd-mix trace")
	}
	mol := hfxmd.Water()
	v7, v8 := initialVelocities(mol, respaTempK, 7), initialVelocities(mol, respaTempK, 8)
	if digest(v7) != digest(initialVelocities(mol, respaTempK, 7)) || digest(v7) == digest(v8) {
		t.Error("respa-aimd velocities do not follow the seed")
	}
}

func TestMixRepeatsAboutAThirdOfKeys(t *testing.T) {
	tr, err := mixTrace(1, 2, 20*mixRoundEvents, jobMix)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for r := 0; r < 20; r++ {
		seen := map[string]bool{}
		for _, ev := range tr[r*mixRoundEvents : (r+1)*mixRoundEvents] {
			k := digest(ev.Request)
			if seen[k] {
				repeats++
			}
			seen[k] = true
		}
	}
	if share := float64(repeats) / float64(len(tr)); share < 0.25 || share > 0.45 {
		t.Errorf("%.2f of submissions repeat a key within their round, want about a third", share)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog the program
// prints and BENCHMARK.json in step: every printed name is declared
// there with the same unit and direction, and every declared name is
// printed.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the program prints %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the program prints %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the program runs %d", names, len(workloads))
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "self.") && !slices.Contains(selfLayers, strings.TrimSuffix(strings.TrimPrefix(d.Name, "self."), "_s")) {
			t.Errorf("%s has no span layer", d.Name)
		}
	}
}

func TestEncodeResultPrintsExactlyTheCatalog(t *testing.T) {
	values := zeroLayers()
	line, err := encodeResult(true, 3, 0, perLayer, values)
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("printed %d metrics, catalog has %d", len(r.Metrics), len(perLayer))
	}
	delete(values, "hfx.build_s")
	if _, err := encodeResult(true, 3, 0, perLayer, values); err == nil {
		t.Error("a missing metric was not reported")
	}
	values["hfx.build_s"] = 1
	values["not.a_metric"] = 1
	if _, err := encodeResult(true, 3, 0, perLayer, values); err == nil {
		t.Error("a metric outside the catalog was printed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.job", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "server.job", Start: 30, End: 70}, // overlaps 2
		{ID: 4, Parent: 1, Name: "scf.run", Start: 80, End: 120},   // runs past its parent
		{ID: 5, Parent: 4, Name: "scf.iter", Start: 90, End: 100},
		{ID: 6, Parent: 1, Name: "hfx.build", Start: 95, End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 20e-9, "server": 80e-9, "scf": 40e-9}
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}
