package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
	"linkreversal/internal/trace"
)

func cellString(c trace.Cell) string { return c.String() }

// sscanF parses a cell as a float64 into dst.
func sscanF(c trace.Cell, dst *float64) (int, error) {
	v, err := strconv.ParseFloat(c.String(), 64)
	if err != nil {
		return 0, err
	}
	*dst = v
	return 1, nil
}

// small returns a fast parameter set for unit tests.
func small() Suite {
	return Suite{
		Sizes:       []int{8, 12},
		WorstCaseNB: []int{4, 8, 16, 32},
		Densities:   []float64{0.2, 0.6},
		Seeds:       2,
	}
}

func TestE1Acyclicity(t *testing.T) {
	tb, err := E1Acyclicity(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	if !strings.Contains(tb.String(), "violations") {
		t.Error("missing violations column")
	}
}

func TestE2Invariants(t *testing.T) {
	tb, err := E2Invariants(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestE3Simulation(t *testing.T) {
	tb, err := E3Simulation(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(small().Sizes) {
		t.Errorf("rows = %d, want %d", len(tb.Rows), len(small().Sizes))
	}
}

func TestE4WorstCaseQuadraticShape(t *testing.T) {
	s := small()
	tb, err := E4WorstCase(s)
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	out := tb.String()
	if !strings.Contains(out, "fit k") {
		t.Fatalf("missing fit row:\n%s", out)
	}
	parse := func(i int) float64 {
		var k float64
		if _, err := sscanF(last[i], &k); err != nil {
			t.Fatalf("parse fit %d: %v", i, err)
		}
		return k
	}
	// FR is quadratic on its worst case (bad chain), PR on its worst case
	// (alternating chain); PR on the bad chain is only linear.
	if k := parse(1); k < 1.7 || k > 2.3 {
		t.Errorf("FR@bad-chain exponent = %.2f, want ≈ 2", k)
	}
	if k := parse(4); k < 1.7 || k > 2.3 {
		t.Errorf("PR@alt-chain exponent = %.2f, want ≈ 2", k)
	}
	if k := parse(2); k > 1.3 {
		t.Errorf("PR@bad-chain exponent = %.2f, want ≈ 1 (linear single pass)", k)
	}
}

func TestE5PRvsFRRatioAtLeastOne(t *testing.T) {
	tb, err := E5PRvsFR(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		var ratio float64
		if _, err := sscanF(row[4], &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio < 1.0 {
			t.Errorf("FR/PR ratio %.2f < 1: PR did more work than FR", ratio)
		}
	}
}

func TestE6DummyOverhead(t *testing.T) {
	tb, err := E6DummyOverhead(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestE7SocialCost(t *testing.T) {
	tb, err := E7SocialCost(small())
	if err != nil {
		t.Fatal(err)
	}
	executions := map[string]bool{}
	for _, row := range tb.Rows {
		executions[cellString(row[1])] = true
		if cellString(row[6]) != "yes" {
			t.Errorf("FR social cost below PR on %s (%s)", cellString(row[0]), cellString(row[1]))
		}
	}
	if !executions["sequential"] || !executions["async"] {
		t.Errorf("E7 should cover sequential and async executions, got %v", executions)
	}
}

func TestE7SocialCostAdversarial(t *testing.T) {
	s := small()
	s.Faults = faults.Lossy(5)
	tb, err := E7SocialCost(s)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, row := range tb.Rows {
		if cellString(row[1]) == "async/lossy" {
			seen = true
		}
		if cellString(row[6]) != "yes" {
			t.Errorf("FR social cost below PR on %s (%s)", cellString(row[0]), cellString(row[1]))
		}
	}
	if !seen {
		t.Error("no async/lossy rows despite a configured adversary")
	}
}

func TestE8Distributed(t *testing.T) {
	tb, err := E8Distributed(small())
	if err != nil {
		t.Fatal(err)
	}
	// One row per topology × algorithm.
	if want := 3 * 3; len(tb.Rows) != want {
		t.Errorf("rows = %d, want %d", len(tb.Rows), want)
	}
	for _, row := range tb.Rows {
		if cellString(row[11]) != "yes" {
			t.Errorf("distributed run not destination-oriented: %s/%s",
				cellString(row[0]), cellString(row[1]))
		}
		if got := cellString(row[2]); got != "block" {
			t.Errorf("%s/%s row has partition %q, want block", cellString(row[0]), cellString(row[1]), got)
		}
		for _, col := range []int{8, 9, 10} { // drops, dups, retrans on a reliable network
			if cellString(row[col]) != "0" {
				t.Errorf("reliable E8 row has non-zero fault column %d: %s", col, cellString(row[col]))
			}
		}
	}
}

func TestE8DistributedPartition(t *testing.T) {
	s := small()
	s.Partition = dist.PartitionLocality
	tb, err := E8Distributed(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("no rows in the locality-partitioned suite")
	}
	for _, row := range tb.Rows {
		if cellString(row[11]) != "yes" {
			t.Errorf("locality-partitioned run not destination-oriented: %s/%s",
				cellString(row[0]), cellString(row[1]))
		}
		if got := cellString(row[2]); got != "locality" {
			t.Errorf("row has partition %q, want locality", got)
		}
	}
}

func TestE8DistributedAdversarial(t *testing.T) {
	s := small()
	s.Faults = faults.Lossy(5)
	tb, err := E8Distributed(s)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for _, row := range tb.Rows {
		if cellString(row[11]) != "yes" {
			t.Errorf("adversarial run not destination-oriented: %s/%s",
				cellString(row[0]), cellString(row[1]))
		}
		var d int
		fmt.Sscanf(cellString(row[8]), "%d", &d)
		drops += d
	}
	if drops == 0 {
		t.Error("lossy E8 suite recorded zero drops; adversary not threaded through")
	}
}

func TestE9RoundsLinearOnBadChain(t *testing.T) {
	tb, err := E9Rounds(small())
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	var k float64
	// PR on the bad chain repairs in one sweep: rounds grow linearly.
	if _, err := sscanF(last[2], &k); err != nil {
		t.Fatal(err)
	}
	if k > 1.3 {
		t.Errorf("PR@bad-chain rounds exponent = %.2f, want ≈ 1", k)
	}
	// FR's parallel rounds on its worst case are also linear even though
	// its WORK is quadratic — the work/time distinction.
	if _, err := sscanF(last[1], &k); err != nil {
		t.Fatal(err)
	}
	if k > 1.3 {
		t.Errorf("FR@bad-chain rounds exponent = %.2f, want ≈ 1", k)
	}
}

func TestE10ChurnRepairIsLocal(t *testing.T) {
	tb, err := E10Churn(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		var perEvent float64
		if _, err := sscanF(row[3], &perEvent); err != nil {
			t.Fatal(err)
		}
		var scratch float64
		if _, err := sscanF(row[4], &scratch); err != nil {
			// Integer cell parses as float too; a failure is a real error.
			t.Fatal(err)
		}
		if scratch > 0 && perEvent > scratch {
			t.Errorf("repair cost per event %.2f exceeds from-scratch cost %.0f", perEvent, scratch)
		}
	}
}

func TestE12Exhaustive(t *testing.T) {
	tb, err := E12Exhaustive(small())
	if err != nil {
		t.Fatal(err)
	}
	// 4 topologies × 6 variants.
	if len(tb.Rows) != 24 {
		t.Errorf("rows = %d, want 24", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if cellString(row[5]) != "0" {
			t.Errorf("violations on %s/%s", cellString(row[0]), cellString(row[1]))
		}
	}
}

func TestE11DistributedChurn(t *testing.T) {
	tb, err := E11DistributedChurn(small())
	if err != nil {
		t.Fatal(err)
	}
	// One row per size.
	if want := len(small().Sizes); len(tb.Rows) != want {
		t.Errorf("rows = %d, want %d", len(tb.Rows), want)
	}
	for _, row := range tb.Rows {
		var perEvent float64
		if _, err := sscanF(row[3], &perEvent); err != nil {
			t.Fatal(err)
		}
		if perEvent < 0 {
			t.Error("negative message rate")
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite skipped in -short mode")
	}
	tables, err := All(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 12 {
		t.Errorf("tables = %d, want 12", len(tables))
	}
}
