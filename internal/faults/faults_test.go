package faults

import (
	"strings"
	"testing"
)

// TestJudgeDeterministic pins the replay contract: verdicts are a pure
// function of (seed, link, seq, attempt, class), identical across injector
// instances, and independent of call order.
func TestJudgeDeterministic(t *testing.T) {
	mk := func() *Injector { return NewInjector(Flaky(42)) }
	a, b := mk(), mk()
	links := []Link{{From: 0, To: 1}, {From: 1, To: 0}, {From: 7, To: 3}}
	var msgs []Msg
	for seq := uint64(1); seq <= 50; seq++ {
		for attempt := 0; attempt < 3; attempt++ {
			msgs = append(msgs, Msg{Seq: seq, Attempt: attempt})
			msgs = append(msgs, Msg{Seq: seq, Attempt: attempt, Ack: true})
		}
	}
	// b judges in reverse order; verdicts must match a's pointwise.
	type key struct {
		l Link
		m Msg
	}
	got := make(map[key]Fate)
	for _, l := range links {
		for _, m := range msgs {
			got[key{l, m}] = a.Judge(l, m)
		}
	}
	for i := len(links) - 1; i >= 0; i-- {
		for j := len(msgs) - 1; j >= 0; j-- {
			k := key{links[i], msgs[j]}
			if f := b.Judge(k.l, k.m); f != got[k] {
				t.Fatalf("verdict for %+v differs across call orders: %+v vs %+v", k, f, got[k])
			}
		}
	}
	if a.Snapshot() != b.Snapshot() {
		t.Errorf("stats diverged over identical decision sets: %+v vs %+v", a.Snapshot(), b.Snapshot())
	}
}

// TestSeedsDiffer checks that distinct seeds produce distinct decision
// streams (the adversary is actually seeded, not constant).
func TestSeedsDiffer(t *testing.T) {
	a, b := NewInjector(Lossy(1)), NewInjector(Lossy(2))
	diff := 0
	for seq := uint64(1); seq <= 200; seq++ {
		m := Msg{Seq: seq}
		l := Link{From: 0, To: 1}
		if a.Judge(l, m) != b.Judge(l, m) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("200 decisions identical across different seeds")
	}
}

// TestDropRate sanity-checks the probabilistic drop policy over many
// decisions: the empirical rate must be near P.
func TestDropRate(t *testing.T) {
	in := NewInjector(&Adversary{Policy: Drop{P: 0.25}, Seed: 7})
	const n = 20000
	drops := 0
	for seq := uint64(1); seq <= n; seq++ {
		if in.Judge(Link{From: 2, To: 3}, Msg{Seq: seq}).Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("empirical drop rate %.3f far from 0.25", rate)
	}
	if got := in.Snapshot().Drops; got != drops {
		t.Errorf("stats drops %d != observed %d", got, drops)
	}
}

// TestDropFirstTargetsAttempts pins the targeted-first-k adversary: the
// first K attempts of every payload are lost, the K-th retransmission and
// all acks pass.
func TestDropFirstTargetsAttempts(t *testing.T) {
	in := NewInjector(&Adversary{Policy: DropFirst{K: 2}, Seed: 1})
	l := Link{From: 4, To: 5}
	for seq := uint64(1); seq <= 10; seq++ {
		for attempt := 0; attempt < 4; attempt++ {
			f := in.Judge(l, Msg{Seq: seq, Attempt: attempt})
			if want := attempt < 2; f.Drop != want {
				t.Fatalf("seq %d attempt %d: drop = %v, want %v", seq, attempt, f.Drop, want)
			}
		}
		if in.Judge(l, Msg{Seq: seq, Ack: true}).Drop {
			t.Fatal("DropFirst dropped an ack")
		}
	}
}

// TestFairLossBound pins the liveness guarantee: once Attempt reaches the
// retry budget, even a drop-everything policy cannot drop a payload — but
// acks stay droppable (they are never retransmitted, so no budget applies).
func TestFairLossBound(t *testing.T) {
	in := NewInjector(&Adversary{Policy: Drop{P: 1}, Seed: 3, RetryBudget: 4})
	l := Link{From: 0, To: 1}
	for attempt := 0; attempt < 4; attempt++ {
		if !in.Judge(l, Msg{Seq: 1, Attempt: attempt}).Drop {
			t.Fatalf("attempt %d under budget not dropped by P=1 policy", attempt)
		}
	}
	if in.Judge(l, Msg{Seq: 1, Attempt: 4}).Drop {
		t.Error("attempt at the retry budget was dropped; fair-loss bound broken")
	}
	if !in.Judge(l, Msg{Seq: 1, Attempt: 9, Ack: true}).Drop {
		t.Error("ack beyond budget not dropped; the budget must not shield acks")
	}
}

// TestSend pins the loss-recovery rule: Send retransmits a dropped payload
// at once until an attempt survives, the fair-loss bound ends the loop at
// the retry budget, every dropped attempt is counted once, and the fate it
// returns is the surviving attempt's Judge verdict.
func TestSend(t *testing.T) {
	l := Link{From: 0, To: 1}
	all := NewInjector(&Adversary{Policy: Drop{P: 1}, Seed: 3, RetryBudget: 4})
	before := all.Snapshot().Drops
	retries, f := all.Send(l, 1)
	if retries != 4 || f.Drop {
		t.Errorf("Drop{P: 1} with budget 4: retries %d, fate %+v; want 4 and a delivery", retries, f)
	}
	if got := all.Snapshot().Drops - before; got != 4 {
		t.Errorf("Send counted %d drops, want 4", got)
	}

	first := NewInjector(&Adversary{Policy: DropFirst{K: 2}, Seed: 1})
	for seq := uint64(1); seq <= 10; seq++ {
		if retries, f := first.Send(l, seq); retries != 2 || f.Drop {
			t.Fatalf("DropFirst{K: 2} seq %d: retries %d, fate %+v; want 2 and a delivery", seq, retries, f)
		}
	}

	never := NewInjector(&Adversary{Policy: Chain{Duplicate{P: 0.5}, Delay{P: 0.5}}, Seed: 2})
	for seq := uint64(1); seq <= 50; seq++ {
		if retries, _ := never.Send(l, seq); retries != 0 {
			t.Fatalf("a policy that never drops: seq %d took %d retries", seq, retries)
		}
	}

	sent := NewInjector(Adversarial(9))
	for seq := uint64(1); seq <= 200; seq++ {
		retries, f := sent.Send(l, seq)
		fresh := NewInjector(Adversarial(9))
		for a := range retries {
			if !fresh.Judge(l, Msg{Seq: seq, Attempt: a}).Drop {
				t.Fatalf("seq %d: attempt %d survives Judge but Send retried past it", seq, a)
			}
		}
		if want := fresh.Judge(l, Msg{Seq: seq, Attempt: retries}); f != want {
			t.Fatalf("seq %d attempt %d: Send fate %+v, Judge fate %+v", seq, retries, f, want)
		}
	}
}

// TestChainMerging checks fate composition: drops win, duplication
// accumulates, holdbacks add up, and clamping bounds hostile values.
func TestChainMerging(t *testing.T) {
	in := NewInjector(&Adversary{
		Policy: Chain{Duplicate{P: 1, Extra: 6}, Duplicate{P: 1, Extra: 6}, Delay{P: 1, Bound: 1}},
		Seed:   5,
	})
	f := in.Judge(Link{From: 1, To: 2}, Msg{Seq: 1})
	if f.Drop {
		t.Fatal("no drop policy in chain, yet dropped")
	}
	if f.Extra != maxExtra {
		t.Errorf("extra = %d, want clamp at %d", f.Extra, maxExtra)
	}
	if f.Hold != 1 {
		t.Errorf("hold = %d, want 1", f.Hold)
	}
	dropper := NewInjector(&Adversary{Policy: Chain{Duplicate{P: 1}, Drop{P: 1}}, Seed: 5})
	if f := dropper.Judge(Link{From: 1, To: 2}, Msg{Seq: 1}); !f.Drop || f.Extra != 0 || f.Hold != 0 {
		t.Errorf("drop in chain must zero the other effects, got %+v", f)
	}
}

// wrapped is a policy of a type Judge does not know, so it is judged
// through the Policy interface.
type wrapped struct{ p Policy }

func (w wrapped) Judge(r *Rand, link Link, m Msg) Fate { return w.p.Judge(r, link, m) }

// TestForeignPolicyKeepsStream checks that a policy of a type Judge does
// not know draws from the same stream as a built-in one: wrapping a chain,
// or each of its parts, changes no fate, so the draws a wrapped part makes
// reach the parts after it.
func TestForeignPolicyKeepsStream(t *testing.T) {
	parts := Chain{Drop{P: 0.3}, Duplicate{P: 0.4, Extra: 2}, Delay{P: 0.5, Bound: 6}}
	each := make(Chain, len(parts))
	for i, p := range parts {
		each[i] = wrapped{p}
	}
	want := NewInjector(&Adversary{Policy: parts, Seed: 9})
	for _, p := range []Policy{wrapped{parts}, each} {
		in := NewInjector(&Adversary{Policy: p, Seed: 9})
		for seq := uint64(1); seq <= 300; seq++ {
			for _, m := range []Msg{{Seq: seq}, {Seq: seq, Attempt: 1}, {Seq: seq, Ack: true}} {
				if f, w := in.Judge(Link{From: 4, To: 2}, m), want.Judge(Link{From: 4, To: 2}, m); f != w {
					t.Fatalf("%#v, %+v: fate %+v, built-in chain %+v", p, m, f, w)
				}
			}
		}
	}
}

// TestDelayBounds checks that Delay holds are within [1, Bound] and Reorder
// always uses holdback 1.
func TestDelayBounds(t *testing.T) {
	in := NewInjector(&Adversary{Policy: Delay{P: 1, Bound: 6}, Seed: 11})
	seen := map[int]bool{}
	for seq := uint64(1); seq <= 500; seq++ {
		f := in.Judge(Link{From: 9, To: 8}, Msg{Seq: seq})
		if f.Hold < 1 || f.Hold > 6 {
			t.Fatalf("hold %d outside [1, 6]", f.Hold)
		}
		seen[f.Hold] = true
	}
	if len(seen) < 3 {
		t.Errorf("holds not spread across the bound: %v", seen)
	}
	ro := NewInjector(&Adversary{Policy: Reorder{P: 1}, Seed: 11})
	if f := ro.Judge(Link{From: 9, To: 8}, Msg{Seq: 1}); f.Hold != 1 {
		t.Errorf("reorder hold = %d, want 1", f.Hold)
	}
}

// TestPresets checks that every preset carries a policy, its scenario name
// and a usable default budget.
func TestPresets(t *testing.T) {
	for _, adv := range []*Adversary{Lossy(1), Flaky(1), Adversarial(1), New(Drop{P: 0.5}, 1)} {
		if err := adv.Validate(); err != nil {
			t.Errorf("%s: %v", adv.Scenario, err)
		}
		if adv.Scenario == "" {
			t.Error("preset without scenario name")
		}
		if got := NewInjector(adv).RetryBudget(); got != DefaultRetryBudget {
			t.Errorf("%s: budget %d, want default %d", adv.Scenario, got, DefaultRetryBudget)
		}
	}
}

// TestValidate pins the rejection of malformed scenarios.
func TestValidate(t *testing.T) {
	bad := []*Adversary{
		{Policy: nil},
		{Policy: Drop{P: 1.5}},
		{Policy: Drop{P: -0.1}},
		{Policy: Chain{Drop{P: 0.1}, nil}},
		{Policy: Chain{Delay{P: 2}}},
		{Policy: DropFirst{K: -1}},
		{Policy: Drop{P: 0.1}, RetryBudget: -2},
	}
	for i, adv := range bad {
		if err := adv.Validate(); err == nil {
			t.Errorf("case %d: invalid adversary %+v passed validation", i, adv)
		}
	}
	if err := Flaky(0).Validate(); err != nil {
		t.Errorf("valid preset rejected: %v", err)
	}
}

// TestValidateErrorsName checks the error text mentions the offending
// policy so misconfiguration is debuggable from the message alone.
func TestValidateErrorsName(t *testing.T) {
	err := (&Adversary{Policy: Duplicate{P: 7}}).Validate()
	if err == nil || !strings.Contains(err.Error(), "Duplicate") {
		t.Errorf("error %v does not name the offending policy", err)
	}
}

// TestPresetsOrder: the slice form lists the presets in hostility order
// with the seed applied to each — the hunt baseline's contract.
func TestPresetsOrder(t *testing.T) {
	all := Presets(42)
	want := []string{"lossy", "flaky", "adversarial"}
	if len(all) != len(want) {
		t.Fatalf("Presets returned %d adversaries, want %d", len(all), len(want))
	}
	for i, adv := range all {
		if adv.Scenario != want[i] {
			t.Errorf("preset %d = %s, want %s", i, adv.Scenario, want[i])
		}
		if adv.Seed != 42 {
			t.Errorf("preset %s seed = %d, want 42", adv.Scenario, adv.Seed)
		}
		if err := adv.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", adv.Scenario, err)
		}
	}
}

// TestNewRand: the exported constructor yields the same deterministic
// splitmix64 stream for equal states and distinct streams for different
// states.
func TestNewRand(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 16; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d diverged: %d != %d", i, x, y)
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Error("different states produced identical first draws")
	}
	c := NewRand(9)
	if f := c.Float64(); f < 0 || f >= 1 {
		t.Errorf("Float64 = %v outside [0, 1)", f)
	}
	if n := c.Intn(10); n < 0 || n >= 10 {
		t.Errorf("Intn(10) = %d", n)
	}
}
