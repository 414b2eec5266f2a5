package hunt

import (
	"bytes"
	"encoding/json"
	"testing"

	"linkreversal/internal/dist"
	"linkreversal/internal/faults"
)

// FuzzHuntMutator pins the mutator's two contracts: every mutation chain
// yields candidates the dist layer accepts (the adversary validates and
// every schedule knob is in the accepted range — nothing the hunter
// produces can die with ErrBadOption mid-hunt), and mutation is a pure
// function of the stream state (two equal streams produce byte-identical
// candidate chains).
func FuzzHuntMutator(f *testing.F) {
	f.Add(uint64(1), int64(2), uint8(3))
	f.Add(uint64(0xdeadbeef), int64(-7), uint8(40))
	f.Add(uint64(42), int64(0), uint8(255))
	f.Fuzz(func(t *testing.T, state uint64, genomeSeed int64, rawSteps uint8) {
		steps := 1 + int(rawSteps)%12
		r1, r2 := faults.NewRand(state), faults.NewRand(state)
		c1 := Candidate{Genome: AdversarialGenome(genomeSeed)}
		c2 := c1
		for i := 0; i < steps; i++ {
			c1 = MutateCandidate(r1, c1)
			c2 = MutateCandidate(r2, c2)

			if err := c1.Genome.Adversary().Validate(); err != nil {
				t.Fatalf("mutation %d produced invalid adversary: %v", i, err)
			}
			if len(c1.Genome.Genes) > maxGenes {
				t.Fatalf("mutation %d grew %d genes (cap %d)", i, len(c1.Genome.Genes), maxGenes)
			}
			switch c1.Partition {
			case 0, dist.PartitionBlock, dist.PartitionHash, dist.PartitionLocality:
			default:
				t.Fatalf("mutation %d produced partition %d", i, int(c1.Partition))
			}
			if c1.Shards < 0 || c1.Genome.RetryBudget < 0 {
				t.Fatalf("mutation %d produced negative knob: %+v", i, c1)
			}

			j1, err := json.Marshal(c1)
			if err != nil {
				t.Fatal(err)
			}
			j2, err := json.Marshal(c2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("mutation %d diverged across equal streams:\n%s\n%s", i, j1, j2)
			}

			// The artifact encoding must round-trip the mutant exactly.
			var back Candidate
			if err := json.Unmarshal(j1, &back); err != nil {
				t.Fatal(err)
			}
			j3, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j3) {
				t.Fatalf("mutation %d lost data in JSON round trip:\n%s\n%s", i, j1, j3)
			}
		}
	})
}
