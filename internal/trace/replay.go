package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// Errors returned by replay.
var (
	// ErrReplayMismatch is returned when a recorded step cannot be applied
	// or reverses a different number of edges than recorded.
	ErrReplayMismatch = errors.New("trace: replay diverged from recording")
	// ErrBadRecording is returned for malformed serialized executions.
	ErrBadRecording = errors.New("trace: malformed recording")
)

// recordedStep is the JSON form of one transition.
type recordedStep struct {
	// Nodes lists the participants; one node encodes reverse(u), several
	// encode reverse(S).
	Nodes []graph.NodeID `json:"nodes"`
	// Set distinguishes a singleton reverse(S) from reverse(u).
	Set bool `json:"set,omitempty"`
	// Reversed is the number of edges the step reversed.
	Reversed int `json:"reversed"`
}

// recording is the JSON document.
type recording struct {
	Algorithm string         `json:"algorithm"`
	Steps     []recordedStep `json:"steps"`
}

// EncodeExecution serializes a recorded execution as JSON.
func EncodeExecution(w io.Writer, e *automaton.Execution) error {
	rec := recording{Algorithm: e.AutomatonName, Steps: make([]recordedStep, 0, e.Len())}
	for _, r := range e.Records {
		step := recordedStep{Reversed: r.Reversed}
		switch act := r.Action.(type) {
		case automaton.ReverseNode:
			step.Nodes = []graph.NodeID{act.U}
		case automaton.ReverseSet:
			step.Nodes = append(step.Nodes, act.S...)
			step.Set = true
		default:
			return fmt.Errorf("trace: cannot encode action %T", r.Action)
		}
		rec.Steps = append(rec.Steps, step)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}

// DecodeExecution parses a serialized execution.
func DecodeExecution(r io.Reader) (*automaton.Execution, error) {
	var rec recording
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecording, err)
	}
	e := &automaton.Execution{AutomatonName: rec.Algorithm}
	for i, s := range rec.Steps {
		if len(s.Nodes) == 0 {
			return nil, fmt.Errorf("%w: step %d has no nodes", ErrBadRecording, i)
		}
		var act automaton.Action
		if s.Set || len(s.Nodes) > 1 {
			act = automaton.NewReverseSet(s.Nodes)
		} else {
			act = automaton.ReverseNode{U: s.Nodes[0]}
		}
		e.Append(act, s.Reversed)
	}
	return e, nil
}

// Replay applies a recorded execution to a fresh automaton, verifying that
// every recorded action is enabled and reverses exactly the recorded number
// of edges. It returns the automaton's step count on success.
func Replay(a automaton.Automaton, e *automaton.Execution) (int, error) {
	for i, r := range e.Records {
		before := a.TotalReversals()
		if err := a.Step(r.Action); err != nil {
			return a.Steps(), fmt.Errorf("%w: step %d (%s): %v", ErrReplayMismatch, i, r.Action, err)
		}
		if got := a.TotalReversals() - before; got != r.Reversed {
			return a.Steps(), fmt.Errorf("%w: step %d (%s) reversed %d edges, recorded %d",
				ErrReplayMismatch, i, r.Action, got, r.Reversed)
		}
	}
	return a.Steps(), nil
}
