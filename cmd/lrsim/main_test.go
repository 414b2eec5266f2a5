package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunFlagErrors pins the flag- and name-validation paths.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-alg", "dijkstra"},
		{"-sched", "psychic"},
		{"-sched", "Scheduler(7)"},
		{"-alg", "GBFull"},
		{"-topo", "nope"},
		{"-n", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSmoke runs one tiny simulation per algorithm family end to end.
func TestRunSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-topo", "bad-chain", "-n", "6", "-alg", "PR", "-check"},
		{"-topo", "alt-chain", "-n", "6", "-alg", "NewPR"},
		{"-topo", "star", "-n", "5", "-alg", "GBPair", "-dot"},
		{"-topo", "bad-chain", "-n", "6", "-alg", "fr", "-sched", "adversarial-max", "-check"},
		{"-topo", "alt-chain", "-n", "6", "-alg", "onesteppr", "-sched", "Round-Robin"},
	} {
		if err := run(args); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
}

// TestRunRecordReplay records an execution to a file and replays it.
func TestRunRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exec.json")
	if err := run([]string{"-topo", "bad-chain", "-n", "5", "-alg", "PR", "-record", path}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("recorded file: %v", err)
	}
	if err := run([]string{"-topo", "bad-chain", "-n", "5", "-alg", "PR", "-replay", path}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}
