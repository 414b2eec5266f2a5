package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := f()
	w.Close()
	out := <-done
	if ferr != nil {
		t.Fatalf("run: %v", ferr)
	}
	return out
}

// TestRunFlagErrors pins the flag-validation paths.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nope"},
		{"-csv", "-json"},
		{"-engine", "sharded"}, // no such flag
		{"-partition", "psychic"},
		{"-faults", "sunny"},
		{"-quick", "-only", "E13"},
	} {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunQuickE1JSON is the end-to-end smoke: one small experiment, JSON
// output, parseable with at least one row.
func TestRunQuickE1JSON(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-quick", "-only", "E1", "-json"})
	})
	var tables []struct {
		Title   string          `json:"title"`
		Columns []string        `json:"columns"`
		Rows    [][]interface{} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Fatalf("unexpected tables: %+v", tables)
	}
}

// TestRunQuickE11 smokes the dynamic-network experiment end to end
// (partition heal path included).
func TestRunQuickE11(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-quick", "-only", "E11"})
	})
	if len(out) == 0 {
		t.Fatal("no output from E11")
	}
}
