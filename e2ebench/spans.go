package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
}

// recorder keeps a run's spans in memory until the benchmark exits. A nil
// recorder records nothing, so untraced code paths share the traced ones:
// do still times its function, begin/end/add are no-ops.
type recorder struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

// begin opens a span under parent and returns its id.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: start, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere, such as an
// SCF iteration delimited by two OnIteration callbacks.
func (r *recorder) add(parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Run: r.run,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
}

// do runs f inside a span and returns its wall.
func (r *recorder) do(parent int, name string, f func()) time.Duration {
	id := r.begin(parent, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.end(id)
	return d
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as a JSON array under dir.
func (r *recorder) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.run+".json")
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns the self time of each layer in seconds: a span's
// duration minus the part of it that its children cover (overlapping
// children, as from concurrent clients, count once). Unclosed spans are
// skipped.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, in := range iv {
		a, b := max(in[0], cur), min(in[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
