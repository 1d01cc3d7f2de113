package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one simulation or job
// share an op ID.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and returns span ID 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id int64) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per layer (the span name up to its first dot), the
// summed self time in seconds: each span's duration minus the part of it
// that its children cover. Children may overlap (pool jobs run side by
// side), so their intervals are merged first.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		layer := s.Name
		if i := strings.IndexByte(layer, '.'); i >= 0 {
			layer = layer[:i]
		}
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans stores the spans and their self times as JSON next to the
// run's scratch directory and copies the self times into the per-layer
// metrics.
func (r *run) writeSpans() {
	self := r.tr.selfTimes()
	for _, d := range perLayer {
		if layer, ok := strings.CutPrefix(d.name, "self_s."); ok {
			r.layer[d.name] = self[layer]
		}
	}
	r.tr.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{r.name, r.seed, self, r.tr.spans}
	b, err := json.Marshal(doc)
	r.tr.mu.Unlock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		return
	}
	path := filepath.Join(r.work, fmt.Sprintf("spans-%s-seed%d.json", r.name, r.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(doc.Spans), path)
}
