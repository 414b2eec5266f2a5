// Package trace provides execution metrics and plain-text/CSV/JSON table
// rendering for the experiment harness. Tables are the unit of output for
// every experiment in EXPERIMENTS.md: one Table per paper claim.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"linkreversal/internal/automaton"
	"linkreversal/internal/graph"
)

// WorkProfile aggregates per-node reversal counts from a recorded
// execution. It is the cost model of the game-theoretic comparison
// (Charron-Bost et al.): each node's cost is the number of reversals it
// performs, and the social cost is the sum.
type WorkProfile struct {
	perNode map[graph.NodeID]int
	steps   int
}

// NewWorkProfile computes the profile of a recorded execution. Reversal
// counts of set actions are attributed by re-deriving each participant's
// share; for single-node actions the whole step count goes to that node.
// For set actions the per-step count is split equally when exact
// attribution is unavailable (participants of a PR set step reverse
// disjoint edge sets, so equal split is exact only per participant count;
// callers needing exact attribution should run single-step schedules).
func NewWorkProfile(e *automaton.Execution) *WorkProfile {
	p := &WorkProfile{perNode: make(map[graph.NodeID]int)}
	for _, r := range e.Records {
		p.steps++
		parts := r.Action.Participants()
		if len(parts) == 0 {
			continue
		}
		share := r.Reversed / len(parts)
		rem := r.Reversed % len(parts)
		for i, u := range parts {
			c := share
			if i < rem {
				c++
			}
			p.perNode[u] += c
		}
	}
	return p
}

// NodeCost returns the number of reversals attributed to u.
func (p *WorkProfile) NodeCost(u graph.NodeID) int { return p.perNode[u] }

// SocialCost returns the total number of reversals across all nodes.
func (p *WorkProfile) SocialCost() int {
	total := 0
	for _, c := range p.perNode {
		total += c
	}
	return total
}

// Steps returns the number of recorded steps.
func (p *WorkProfile) Steps() int { return p.steps }

// WorkProfileFromSteps replays a distributed step linearization (the
// dist.Result.Trace of an asynchronous — possibly adversarial — run) on
// the matching sequential automaton and attributes each step's reversals
// to the stepping node. It is the bridge that lets the social-cost
// accounting of the game-theoretic experiments cover asynchronous
// executions: a distributed trace is a legal sequential execution, so
// replaying it yields the exact per-node reversal counts of the
// distributed run. The automaton must be fresh (at the initial state);
// replay errors are returned verbatim.
func WorkProfileFromSteps(a automaton.Automaton, steps []graph.NodeID) (*WorkProfile, error) {
	p := new(WorkProfile)
	for i, u := range steps {
		if err := p.Replay(a, u); err != nil {
			return nil, fmt.Errorf("trace: replay step %d (node %d): %w", i, u, err)
		}
	}
	return p, nil
}

// Replay applies u's step to a and attributes the reversals it makes to u.
// a must be in the state the profile's earlier steps left it in; the zero
// WorkProfile starts from a fresh automaton.
func (p *WorkProfile) Replay(a automaton.Automaton, u graph.NodeID) error {
	prev := a.TotalReversals()
	if err := a.Step(automaton.ReverseNode{U: u}); err != nil {
		return err
	}
	if p.perNode == nil {
		p.perNode = make(map[graph.NodeID]int)
	}
	p.perNode[u] += a.TotalReversals() - prev
	p.steps++
	return nil
}

// MaxNodeCost returns the largest per-node cost and the node achieving it.
func (p *WorkProfile) MaxNodeCost() (graph.NodeID, int) {
	best, bestCost := graph.NodeID(-1), -1
	for u, c := range p.perNode {
		if c > bestCost || (c == bestCost && u < best) {
			best, bestCost = u, c
		}
	}
	if bestCost < 0 {
		return -1, 0
	}
	return best, bestCost
}

// Skew is the load-imbalance measure of the profile: the largest per-node
// cost divided by the mean cost over active (non-zero-cost) nodes. 1 means
// perfectly even work; large values mean a few nodes absorbed the
// repair. It is one of the adversarial search harness's fitness
// objectives. A profile with no work has skew 0.
func (p *WorkProfile) Skew() float64 {
	active, total, peak := 0, 0, 0
	for _, c := range p.perNode {
		if c <= 0 {
			continue
		}
		active++
		total += c
		if c > peak {
			peak = c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(peak) * float64(active) / float64(total)
}

// ActiveNodes returns the nodes with non-zero cost in ascending order.
func (p *WorkProfile) ActiveNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(p.perNode))
	for u, c := range p.perNode {
		if c > 0 {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cell is one table value, rendered either as an integer, a float, or a
// string.
type Cell struct {
	s string
}

// S returns a string cell.
func S(v string) Cell { return Cell{s: v} }

// I returns an integer cell.
func I(v int) Cell { return Cell{s: strconv.Itoa(v)} }

// F returns a float cell with two decimals.
func F(v float64) Cell { return Cell{s: strconv.FormatFloat(v, 'f', 2, 64)} }

// String returns the rendered cell value.
func (c Cell) String() string { return c.s }

// Table is a simple column-aligned table with a title, matching the layout
// of the experiment outputs recorded in EXPERIMENTS.md. Scenario and Seed
// optionally record the run's provenance — the fault scenario and the PRNG
// seed every row is replayable from — and travel with the JSON rendering,
// so an archived benchmark artifact identifies its own reproduction
// coordinates.
type Table struct {
	Title    string
	Columns  []string
	Rows     [][]Cell
	Scenario string
	Seed     int64
}

// SetProvenance stamps the table with the scenario name and seed its rows
// were produced under (lrbench does this for every emitted table).
func (t *Table) SetProvenance(scenario string, seed int64) {
	t.Scenario = scenario
	t.Seed = seed
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; the number of cells must match the header.
func (t *Table) AddRow(cells ...Cell) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("trace: row has %d cells, table has %d columns", len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAddRow is AddRow for rows of statically known width; it panics on
// width mismatch (a programming error in the experiment harness).
func (t *Table) MustAddRow(cells ...Cell) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c.s) > widths[i] {
				widths[i] = len(c.s)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for pad := len(c); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.s
		}
		writeRow(cells)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (header row first, no title).
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c.s, ",\"\n") {
				cells[i] = strconv.Quote(c.s)
			} else {
				cells[i] = c.s
			}
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// tableJSON is the machine-readable form of a Table: rows are arrays of
// rendered cell strings in column order, so consumers join columns[i] with
// row[i] without caring about cell types. Scenario and seed, when present,
// are the reproduction coordinates of every row.
type tableJSON struct {
	Title    string     `json:"title"`
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	Scenario string     `json:"scenario,omitempty"`
	Seed     *int64     `json:"seed,omitempty"`
}

func (t *Table) toJSON() tableJSON {
	doc := tableJSON{Title: t.Title, Columns: t.Columns, Rows: make([][]string, len(t.Rows))}
	doc.Scenario = t.Scenario
	if t.Scenario != "" {
		seed := t.Seed
		doc.Seed = &seed
	}
	for i, row := range t.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.s
		}
		doc.Rows[i] = cells
	}
	return doc
}

// RenderJSON writes the table as a single JSON object
// {"title", "columns", "rows"}, newline-terminated.
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.toJSON())
}

// WriteJSON writes tables as one JSON array of table objects — the format
// of lrbench -json and of the benchmark artifacts CI archives per run.
func WriteJSON(w io.Writer, tables []*Table) error {
	docs := make([]tableJSON, len(tables))
	for i, t := range tables {
		docs[i] = t.toJSON()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(docs)
}

// String renders the table to a string for logs and tests.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("trace: render: %v", err)
	}
	return b.String()
}

// FitExponent estimates the growth exponent k of y ≈ c·x^k from a series of
// (x, y) samples by least-squares on log-log values. Samples with
// non-positive coordinates are skipped. It is used to confirm the Θ(n_b²)
// shape of the worst-case experiments. The second result is false when
// fewer than two usable samples remain.
func FitExponent(xs, ys []float64) (float64, bool) {
	if len(xs) != len(ys) {
		return 0, false
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	n := float64(len(lx))
	if len(lx) < 2 {
		return 0, false
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}
