package main

import "testing"

// TestRunFlagErrors pins the flag- and name-validation paths.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-topo", "nope"},
		{"-n", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSmoke exhaustively model-checks one tiny topology end to end.
func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-topo", "alt-chain", "-n", "4"}); err != nil {
		t.Fatal(err)
	}
}
