package hunt

import (
	"testing"

	"linkreversal/internal/faults"
)

// TestJudgeAllocFree pins fault judging at zero allocations per call:
// Judge hands every built-in policy a random stream on its own stack. It
// covers payloads, retransmission attempts and acks under Judge, and Send,
// for the three presets and for a chain of every gene kind, built the way
// the hunter builds its candidates.
func TestJudgeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	genome := Genome{Genes: []Gene{
		{Kind: GeneDrop, P: 0.2},
		{Kind: GeneDropFirst, K: 1},
		{Kind: GeneDuplicate, P: 0.3, K: 2},
		{Kind: GeneDelay, P: 0.4, K: 5},
		{Kind: GeneReorder, P: 0.5},
	}, Seed: 11}
	for _, adv := range append(faults.Presets(3), genome.Adversary()) {
		in := faults.NewInjector(adv)
		link := faults.Link{From: 3, To: 7}
		seq := uint64(0)
		judge := testing.AllocsPerRun(200, func() {
			seq++
			in.Judge(link, faults.Msg{Seq: seq})
			in.Judge(link, faults.Msg{Seq: seq, Attempt: 1})
			in.Judge(link, faults.Msg{Seq: seq, Ack: true})
		})
		send := testing.AllocsPerRun(200, func() {
			seq++
			in.Send(link, seq)
		})
		if judge != 0 || send != 0 {
			t.Errorf("%s: Judge allocates %.1f and Send %.1f times per call, want 0", adv.Scenario, judge, send)
		}
	}
}
