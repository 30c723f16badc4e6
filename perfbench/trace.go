package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own code. Spans of one run share its Run identifier.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the run's root span
	Name   string `json:"name"`   // "<layer>.<call>"
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site. It is
// used from one goroutine only.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Run: t.run, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// selfTimes sums, per layer, the spans' self time: each span's duration minus
// the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
