package hunt

import (
	"fmt"

	"linkreversal/internal/dist"
)

// Fitness selects what the hunter maximizes — which notion of "worst
// execution" the search climbs toward.
type Fitness int

const (
	// FitnessWork maximizes the social cost (total edge reversals) — the
	// quantity of the paper's Θ(n_b²) bound. Schedule-independent for FR
	// and NewPR (confluence), schedule-dependent for PR, where the hunter
	// searches over list contents.
	FitnessWork Fitness = iota + 1
	// FitnessSteps maximizes node steps, counting NewPR's dummy
	// parity-fixing steps that reverse nothing.
	FitnessSteps
	// FitnessRetrans maximizes payload retransmissions — the cost the
	// fault adversary extracts by dropping payloads, each of which its
	// sender retransmits at once.
	FitnessRetrans
	// FitnessSkew maximizes work imbalance: the peak per-node cost over the
	// mean across active nodes (WorkProfile.Skew). Finds schedules that
	// concentrate the repair on few nodes.
	FitnessSkew
)

var fitnessNames = map[Fitness]string{
	FitnessWork:    "work",
	FitnessSteps:   "steps",
	FitnessRetrans: "retrans",
	FitnessSkew:    "skew",
}

// String implements fmt.Stringer.
func (f Fitness) String() string {
	if s, ok := fitnessNames[f]; ok {
		return s
	}
	return fmt.Sprintf("Fitness(%d)", int(f))
}

// ParseFitness parses a fitness name as spelled by String (the lrhunt
// -fitness values).
func ParseFitness(s string) (Fitness, error) {
	for f, name := range fitnessNames {
		if name == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("hunt: unknown fitness %q (want work, steps, retrans or skew)", s)
}

// score extracts the fitness value from a run whose work skew is skew.
func (f Fitness) score(res *dist.Result, skew float64) float64 {
	switch f {
	case FitnessWork:
		return float64(res.Stats.TotalReversals)
	case FitnessSteps:
		return float64(res.Stats.Steps)
	case FitnessRetrans:
		return float64(res.Stats.Retransmits)
	case FitnessSkew:
		return skew
	default:
		panic(fmt.Sprintf("hunt: fitness %d", int(f)))
	}
}
