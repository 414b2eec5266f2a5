package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Layer: "repair", Parent: -1, Start: 0, End: 10 * ms},
		{Layer: "init", Parent: 0, Start: 1 * ms, End: 3 * ms},
		{Layer: "run", Parent: 0, Start: 2 * ms, End: 5 * ms},     // overlaps init: counted once
		{Layer: "verify", Parent: 0, Start: 8 * ms, End: 12 * ms}, // clipped to the parent's end
		{Layer: "run", Parent: 2, Start: 3 * ms, End: 4 * ms},     // grandchild: only run's self time shrinks
		{Layer: "other", Parent: -1, Start: 20 * ms, End: 21 * ms},
	}
	want := map[string]time.Duration{
		"repair": 10*ms - 4*ms - 2*ms,
		"init":   2 * ms,
		"run":    3*ms - 1*ms + 1*ms,
		"verify": 4 * ms,
		"other":  1 * ms,
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	h := r.begin("x", 1, -1)
	r.end(h)
	if h != -1 || r.snapshot() != nil {
		t.Fatalf("nil recorder recorded something")
	}
}

// The export is a Chrome trace-event document Perfetto loads: a named
// track per layer and one complete event per span on its layer's track.
func TestWriteChromeOneTrackPerLayer(t *testing.T) {
	r := newRecorder()
	root := r.begin("repair.layers", 7, -1)
	r.end(r.begin("core.init", 7, root))
	r.end(r.begin("dist.run", 7, root))
	r.end(root)
	var buf bytes.Buffer
	if err := writeChrome(&buf, r.snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]int{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			tracks[ev.Args["name"].(string)] = ev.TID
		case "X":
			spans++
			if tracks[ev.Name] != ev.TID {
				t.Errorf("span %s on track %d, its layer's track is %d", ev.Name, ev.TID, tracks[ev.Name])
			}
			if ev.Args["id"].(float64) != 7 {
				t.Errorf("span %s lost its operation id: %v", ev.Name, ev.Args)
			}
		}
	}
	if len(tracks) != 3 || spans != 3 {
		t.Fatalf("%d tracks and %d spans, want 3 and 3: %s", len(tracks), spans, buf.String())
	}
}
