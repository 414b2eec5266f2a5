package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"linkreversal/internal/trace"
)

// span is one timed call into a layer, recorded from the benchmark side of
// the call. Spans of one operation (a repair, a churn op, a request) share
// an ID; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Layer  string
	ID     int64
	Parent int
	Start  time.Duration // since the recorder started
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per layer call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (r *recorder) begin(layer string, id int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Layer: layer, ID: id, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover (children clipped to the parent, and
// overlapping children counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		self[s.Layer] += (s.End - s.Start) - covered(s, children[i])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// writeChrome exports spans as Chrome trace-event JSON: one Perfetto track
// per layer, one complete ("X") event per span.
func writeChrome(w io.Writer, spans []span) error {
	var layers []string
	for _, s := range spans {
		if !slices.Contains(layers, s.Layer) {
			layers = append(layers, s.Layer)
		}
	}
	slices.Sort(layers)
	tid := make(map[string]int, len(layers))
	events := make([]trace.ChromeEvent, 0, len(layers)+len(spans))
	for i, l := range layers {
		tid[l] = i + 1
		events = append(events, trace.ChromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
			Args: map[string]any{"name": l},
		})
	}
	for _, s := range spans {
		args := map[string]any{"id": s.ID}
		if s.Parent >= 0 {
			args["parent"] = spans[s.Parent].Layer
		}
		events = append(events, trace.ChromeEvent{
			Name: s.Layer, Phase: "X", PID: 1, TID: tid[s.Layer],
			TS: micros(s.Start), Dur: micros(s.End - s.Start), Args: args,
		})
	}
	return trace.WriteChromeTrace(w, events)
}

// printSelfTimes writes the per-layer self-time table of a traced run.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	slices.Sort(layers)
	fmt.Fprintln(w, "layer self time:")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-24s %10.4f s\n", l, self[l].Seconds())
	}
}
