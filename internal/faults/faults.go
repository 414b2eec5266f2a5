// Package faults is a deterministic, seeded network-adversary subsystem
// for the internal/dist execution engines. It sits between senders and
// receivers and decides, per transmission, whether the message is dropped,
// duplicated, or held back behind later traffic — turning the scheduler
// from "whatever Go does" into a programmable worst-case generator.
//
// # Determinism and replay
//
// Every decision is a pure function of (seed, link, sequence number,
// attempt): the Injector derives a fresh splitmix64 stream from those
// coordinates and hands it to the Policy, so no shared PRNG state is
// mutated and the adversary's choices do not depend on goroutine
// interleaving. Two runs with the same (scenario, seed) see exactly the
// same per-message fates, which is what makes adversarial runs replayable
// from their (scenario, seed) coordinates alone.
//
// # Fairness and liveness
//
// Loss would break liveness (and quiescence detection) outright, so the
// Injector enforces a fair-loss bound: a transmission whose Attempt has
// reached the adversary's RetryBudget is never dropped, no matter what the
// Policy says. Both dist planes send every payload through Injector.Send,
// which retransmits a dropped attempt at once until one survives, so every
// payload is delivered after at most RetryBudget retransmissions.
// Holdback values are finite and decrement at every delivery opportunity,
// so delayed messages cannot be postponed forever either.
package faults

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"linkreversal/internal/graph"
)

// Link identifies one directed link of the communication graph.
type Link struct {
	From, To graph.NodeID
}

// Msg carries the fault-relevant coordinates of one transmission. Payload
// contents are invisible to policies on purpose: fates may depend only on
// the link, the per-link sequence number, the retransmission attempt and
// the message class, which is what keeps decisions replayable.
type Msg struct {
	// Seq is the per-directed-link sequence number of the payload (1-based).
	Seq uint64
	// Attempt is 0 for the first transmission and k for the k-th
	// retransmission of the same payload.
	Attempt int
	// Ack reports whether this transmission is an acknowledgement rather
	// than a payload. Dropped acks are never retransmitted (no state reads
	// an ack), so the fair-loss bound does not cover them and policies may
	// treat them more harshly.
	Ack bool
}

// Fate is a policy's verdict on one transmission.
type Fate struct {
	// Drop loses the transmission. A dropped payload is retransmitted at
	// once as the next attempt (Injector.Send); a dropped ack is silently
	// gone. When Drop is set, Extra and Hold are ignored.
	Drop bool
	// Extra is the number of duplicate copies delivered in addition to the
	// original (0 = no duplication). Receivers absorb them (by sequence
	// number on the static plane, by idempotent merge on the dynamic one),
	// so duplicates exercise the protocol without changing it.
	Extra int
	// Hold is the number of times the transmission is requeued at the back
	// of its receiver's queue before delivery — the logical-time holdback
	// that realizes bounded delay and reordering (each requeue lets the
	// backlog queued at that moment overtake the message). 0 = deliver in
	// arrival order.
	Hold int
}

// merge folds another fate into f (policy chaining): any drop wins,
// duplication accumulates, holdbacks add up.
func (f Fate) merge(g Fate) Fate {
	return Fate{Drop: f.Drop || g.Drop, Extra: f.Extra + g.Extra, Hold: f.Hold + g.Hold}
}

// Policy decides the fate of transmissions. Implementations must be pure:
// the verdict may depend only on the arguments (the Rand stream is already
// derived from the transmission's coordinates), never on mutable state —
// Judge is called concurrently from every node or shard goroutine.
type Policy interface {
	Judge(r *Rand, link Link, m Msg) Fate
}

// Rand is a tiny deterministic generator (splitmix64) seeded per decision
// from (seed, link, seq, attempt, class). Policies draw from it in a fixed
// order, so a chain of policies stays deterministic as a whole.
type Rand struct {
	state uint64
}

// NewRand returns a splitmix64 stream seeded with state. It is the
// generator the adversarial search harness (internal/hunt) uses for its
// candidate mutations, so hunter decisions share the replayable-from-seed
// determinism of the fault decisions themselves.
func NewRand(state uint64) *Rand { return &Rand{state: state} }

// Uint64 returns the next pseudo-random value of the stream.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n); it panics for n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("faults: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// mix folds v into h (an xor-multiply hash with splitmix finalization
// deferred to the Rand stream itself).
func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

// Drop loses each transmission independently with probability P — the
// probabilistic loss adversary.
type Drop struct {
	// P is the loss probability in [0, 1].
	P float64
}

// Judge implements Policy.
func (d Drop) Judge(r *Rand, _ Link, _ Msg) Fate {
	if r.Float64() < d.P {
		return Fate{Drop: true}
	}
	return Fate{}
}

// DropFirst is the targeted-first-k loss adversary: every payload is
// dropped until its K-th retransmission, forcing the full retransmission
// machinery on every single message. The Injector's fair-loss bound caps K
// at the retry budget, so liveness is preserved even for huge K.
type DropFirst struct {
	// K is the number of leading transmission attempts to lose per payload.
	K int
}

// Judge implements Policy.
func (d DropFirst) Judge(_ *Rand, _ Link, m Msg) Fate {
	if !m.Ack && m.Attempt < d.K {
		return Fate{Drop: true}
	}
	return Fate{}
}

// Duplicate delivers Extra additional copies of each transmission with
// probability P. Receivers deduplicate by sequence number, so duplication
// stresses idempotence without changing the protocol outcome.
type Duplicate struct {
	// P is the duplication probability in [0, 1].
	P float64
	// Extra is the number of additional copies per duplicated transmission;
	// 0 means 1.
	Extra int
}

// Judge implements Policy.
func (d Duplicate) Judge(r *Rand, _ Link, _ Msg) Fate {
	if r.Float64() < d.P {
		extra := d.Extra
		if extra <= 0 {
			extra = 1
		}
		return Fate{Extra: extra}
	}
	return Fate{}
}

// Delay holds each affected transmission back for up to Bound requeues at
// the receiver — the logical-time holdback queue: each unit of holdback
// sends the message to the back of the receiver's queue once more, letting
// the backlog queued at that moment overtake it. The actual holdback is
// drawn uniformly from [1, Bound].
type Delay struct {
	// P is the probability a transmission is delayed, in [0, 1].
	P float64
	// Bound is the maximum holdback; 0 means 4.
	Bound int
}

// Judge implements Policy.
func (d Delay) Judge(r *Rand, _ Link, _ Msg) Fate {
	if r.Float64() < d.P {
		bound := d.Bound
		if bound <= 0 {
			bound = 4
		}
		return Fate{Hold: 1 + r.Intn(bound)}
	}
	return Fate{}
}

// Reorder gives each affected transmission a holdback of 1 with
// probability P: the message is requeued at the back of its receiver's
// queue once, so everything queued at that moment may overtake it — the
// minimal holdback perturbation of arrival order (Delay generalizes this
// to repeated requeues).
type Reorder struct {
	// P is the reorder probability in [0, 1].
	P float64
}

// Judge implements Policy.
func (o Reorder) Judge(r *Rand, _ Link, _ Msg) Fate {
	if r.Float64() < o.P {
		return Fate{Hold: 1}
	}
	return Fate{}
}

// Chain composes policies: the fates are merged in order (any drop wins,
// duplication accumulates, holdbacks add up), and every policy draws from
// the same derived stream in a fixed order, keeping the chain as
// deterministic as its parts.
type Chain []Policy

// Judge implements Policy.
func (c Chain) Judge(r *Rand, link Link, m Msg) Fate {
	var f Fate
	for _, p := range c {
		f = f.merge(p.Judge(r, link, m))
	}
	return f
}

// DefaultRetryBudget is the retry budget applied when Adversary.RetryBudget
// is zero: the adversary may drop each payload at most this many times
// before the fair-loss bound forces the transmission through.
const DefaultRetryBudget = 16

// maxHold caps holdback values so delayed messages fit the transport's
// compact on-wire representation and cannot be postponed unboundedly.
const maxHold = 255

// maxExtra caps per-transmission duplication so a hostile policy cannot
// amplify traffic without bound.
const maxExtra = 8

// Adversary is a fault-injection scenario: a policy, the seed that makes it
// replayable, and the retry budget of the fair-loss bound. The zero
// RetryBudget means DefaultRetryBudget. Scenario names the preset for
// tables and artifacts; it is purely descriptive.
type Adversary struct {
	// Policy decides per-transmission fates; must be non-nil.
	Policy Policy
	// Seed makes every decision replayable; any value is valid.
	Seed int64
	// RetryBudget is the maximum number of times the same payload may be
	// dropped (and hence retransmitted); 0 means DefaultRetryBudget,
	// negative is invalid.
	RetryBudget int
	// Scenario optionally names the scenario (presets set it), for tables
	// and benchmark artifacts.
	Scenario string
}

// New returns an Adversary running p with the given seed and the default
// retry budget.
func New(p Policy, seed int64) *Adversary {
	return &Adversary{Policy: p, Seed: seed, Scenario: "custom"}
}

// Lossy is the loss preset: 15% probabilistic drop on every link, data and
// acks alike. Liveness comes entirely from retransmitting each dropped
// payload at once under the fair-loss bound (Injector.Send).
func Lossy(seed int64) *Adversary {
	return &Adversary{Policy: Drop{P: 0.15}, Seed: seed, Scenario: "lossy"}
}

// Flaky is the mixed preset: moderate loss, duplication and delay at once —
// the "bad WiFi" network.
func Flaky(seed int64) *Adversary {
	return &Adversary{
		Policy: Chain{
			Drop{P: 0.10},
			Duplicate{P: 0.10},
			Delay{P: 0.20, Bound: 4},
		},
		Seed:     seed,
		Scenario: "flaky",
	}
}

// Adversarial is the hostile preset: every payload loses its first two
// transmission attempts (targeted-first-k), surviving traffic is further
// dropped, duplicated and heavily reordered.
func Adversarial(seed int64) *Adversary {
	return &Adversary{
		Policy: Chain{
			DropFirst{K: 2},
			Drop{P: 0.10},
			Duplicate{P: 0.25, Extra: 2},
			Delay{P: 0.50, Bound: 8},
		},
		Seed:     seed,
		Scenario: "adversarial",
	}
}

// Presets returns every built-in scenario preset at the given seed, in
// hostility order: lossy, flaky, adversarial. It is the sampling baseline
// of the adversarial search harness — the hunter measures the presets
// first and then mutates beyond them, reporting how far past the sampled
// maxima the searched worst case lands.
func Presets(seed int64) []*Adversary {
	return []*Adversary{Lossy(seed), Flaky(seed), Adversarial(seed)}
}

// PresetNamed returns the preset whose Scenario is name, ignoring case, at
// the given seed. "none", "off", "reliable" and the empty string name the
// reliable network, for which it returns nil.
func PresetNamed(name string, seed int64) (*Adversary, error) {
	switch strings.ToLower(name) {
	case "", "none", "off", "reliable":
		return nil, nil
	}
	for _, a := range Presets(seed) {
		if strings.EqualFold(name, a.Scenario) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("faults: unknown scenario %q (want none, lossy, flaky or adversarial)", name)
}

// Stats counts what the adversary did to the traffic. All counters are
// exact and, for runs whose message pattern is schedule independent (Full
// Reversal is), identical across runs and engines with the same seed.
type Stats struct {
	// Drops is the number of transmissions lost (payloads and acks).
	Drops int
	// Dups is the number of extra copies delivered.
	Dups int
	// Held is the number of transmissions given a non-zero holdback.
	Held int
}

// Injector binds an Adversary to the atomic counters of one run and
// enforces the fair-loss bound. It is safe for concurrent use: Judge
// derives all randomness from the transmission's coordinates.
type Injector struct {
	policy Policy
	seed   uint64
	budget int

	drops atomic.Int64
	dups  atomic.Int64
	held  atomic.Int64
}

// NewInjector returns an injector for adv. The adversary must have a
// non-nil Policy and a non-negative RetryBudget; dist validates both and
// surfaces violations as ErrBadOption.
func NewInjector(adv *Adversary) *Injector {
	budget := adv.RetryBudget
	if budget == 0 {
		budget = DefaultRetryBudget
	}
	return &Injector{
		policy: adv.Policy,
		seed:   uint64(adv.Seed),
		budget: budget,
	}
}

// RetryBudget returns the effective fair-loss bound: the maximum number of
// times one payload may be dropped.
func (in *Injector) RetryBudget() int { return in.budget }

// Judge decides the fate of one transmission. The verdict is a pure
// function of (seed, link, m); the fair-loss bound overrides drops once
// m.Attempt reaches the retry budget, and duplication/holdback are clamped
// to the transport's limits.
func (in *Injector) Judge(link Link, m Msg) Fate {
	h := mix(in.seed, uint64(link.From)<<32|uint64(uint32(link.To)))
	h = mix(h, m.Seq)
	cls := uint64(m.Attempt) << 1
	if m.Ack {
		cls |= 1
	}
	h = mix(h, cls)
	r := Rand{state: h}
	f := judge(in.policy, &r, link, m)
	if f.Drop && !m.Ack && m.Attempt >= in.budget {
		// Fair-loss bound: the adversary has exhausted its drop budget for
		// this payload; the transmission goes through.
		f.Drop = false
	}
	if f.Drop {
		in.drops.Add(1)
		return Fate{Drop: true}
	}
	if f.Extra > maxExtra {
		f.Extra = maxExtra
	} else if f.Extra < 0 {
		f.Extra = 0
	}
	if f.Hold > maxHold {
		f.Hold = maxHold
	} else if f.Hold < 0 {
		f.Hold = 0
	}
	if f.Extra > 0 {
		in.dups.Add(int64(f.Extra))
	}
	if f.Hold > 0 {
		in.held.Add(1)
	}
	return f
}

// judge asks p for its fate with the stream r. The built-in policies are
// called by their concrete types, a Chain's parts in turn, so r does not
// escape and Judge keeps it on its stack. A policy of any other type gets
// a heap copy of r, as an interface call would make, and its draws are
// carried back so a chain's later parts continue the same stream.
func judge(p Policy, r *Rand, link Link, m Msg) Fate {
	switch p := p.(type) {
	case Drop:
		return p.Judge(r, link, m)
	case DropFirst:
		return p.Judge(r, link, m)
	case Duplicate:
		return p.Judge(r, link, m)
	case Delay:
		return p.Judge(r, link, m)
	case Reorder:
		return p.Judge(r, link, m)
	case Chain:
		var f Fate
		for _, q := range p {
			f = f.merge(judge(q, r, link, m))
		}
		return f
	}
	heap := &Rand{state: r.state}
	f := p.Judge(heap, link, m)
	r.state = heap.state
	return f
}

// Send transmits one payload: it judges attempts 0, 1, … of (link, seq)
// in order until one is not dropped, and returns the number of dropped
// attempts — each of which its sender retransmitted at once — and the
// surviving attempt's fate. The fair-loss bound ends the loop at the retry
// budget. This is the one loss-recovery rule of both dist planes.
func (in *Injector) Send(link Link, seq uint64) (retries int, f Fate) {
	for {
		f = in.Judge(link, Msg{Seq: seq, Attempt: retries})
		if !f.Drop {
			return retries, f
		}
		retries++
	}
}

// Snapshot returns the counters accumulated so far. Callers must ensure
// the run has quiesced for an exact reading.
func (in *Injector) Snapshot() Stats {
	return Stats{
		Drops: int(in.drops.Load()),
		Dups:  int(in.dups.Load()),
		Held:  int(in.held.Load()),
	}
}

// Validate reports whether adv is a usable scenario; dist wraps the error
// in ErrBadOption.
func (adv *Adversary) Validate() error {
	if adv.Policy == nil {
		return fmt.Errorf("faults: adversary has no policy")
	}
	if adv.RetryBudget < 0 {
		return fmt.Errorf("faults: negative retry budget %d", adv.RetryBudget)
	}
	if chk, ok := adv.Policy.(interface{ validate() error }); ok {
		if err := chk.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks probability fields of the built-in policies; composite
// chains validate their parts.
func (d Drop) validate() error      { return checkP("Drop", d.P) }
func (d Duplicate) validate() error { return checkP("Duplicate", d.P) }
func (d Delay) validate() error     { return checkP("Delay", d.P) }
func (o Reorder) validate() error   { return checkP("Reorder", o.P) }
func (d DropFirst) validate() error {
	if d.K < 0 {
		return fmt.Errorf("faults: DropFirst with negative K %d", d.K)
	}
	return nil
}
func (c Chain) validate() error {
	for _, p := range c {
		if p == nil {
			return fmt.Errorf("faults: nil policy in chain")
		}
		if chk, ok := p.(interface{ validate() error }); ok {
			if err := chk.validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkP(name string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("faults: %s probability %v outside [0, 1]", name, p)
	}
	return nil
}
