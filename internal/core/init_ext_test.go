package core_test

import (
	"slices"
	"sync"
	"testing"

	"linkreversal/internal/graph"
	"linkreversal/internal/workload"
)

// TestInitListsConcurrent has 8 goroutines read the initial neighbour
// sets of one fresh Init at once, so the first reads race to build them.
// Every read must equal the sets of the initial orientation, taken
// sequentially beforehand, and InDegree must count the in-set.
func TestInitListsConcurrent(t *testing.T) {
	topo := workload.RandomConnected(400, 0.02, 3)
	n := topo.Graph.NumNodes()
	wantIn := make([][]graph.NodeID, n)
	wantOut := make([][]graph.NodeID, n)
	for u := range n {
		wantIn[u] = topo.Initial.InNeighbors(graph.NodeID(u))
		wantOut[u] = topo.Initial.OutNeighbors(graph.NodeID(u))
	}
	in := topo.MustInit()
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Each reader starts at a different node and alternates which
			// set it asks for first.
			for k := range n {
				u := graph.NodeID((k + r*n/readers) % n)
				var gotIn, gotOut []graph.NodeID
				if r%2 == 0 {
					gotIn, gotOut = in.InNbrs(u), in.OutNbrs(u)
				} else {
					gotOut, gotIn = in.OutNbrs(u), in.InNbrs(u)
				}
				if !slices.Equal(gotIn, wantIn[u]) || !slices.Equal(gotOut, wantOut[u]) || in.InDegree(u) != len(wantIn[u]) {
					t.Errorf("reader %d, node %d: in %v out %v in-degree %d, want in %v out %v", r, u, gotIn, gotOut, in.InDegree(u), wantIn[u], wantOut[u])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
