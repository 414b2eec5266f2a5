package main

import "testing"

// TestRunFlagErrors pins the flag-validation paths.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-maxn", "3"},
		{"-runs", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunSmoke machine-checks a couple of tiny randomized configurations
// end to end — every invariant on every reachable state plus the
// simulation relations.
func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-runs", "2", "-maxn", "8", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}
