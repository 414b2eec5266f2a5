package linkreversal_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	lr "linkreversal"
)

// ExampleRun repairs the worst-case chain with Partial Reversal.
func ExampleRun() {
	topo := lr.BadChain(4) // 0 ← destination, all edges directed away
	rep, err := lr.RunTopology(topo, lr.Config{Algorithm: lr.PR})
	if err != nil {
		panic(err)
	}
	fmt.Printf("reversals=%d oriented=%v acyclic=%v\n",
		rep.TotalReversals, rep.DestinationOriented, rep.Acyclic)
	// Output: reversals=4 oriented=true acyclic=true
}

// ExampleRun_newPR runs the paper's NewPR with every invariant checked
// after every step.
func ExampleRun_newPR() {
	topo := lr.AlternatingChain(6)
	rep, err := lr.RunTopology(topo, lr.Config{
		Algorithm:       lr.NewPR,
		Scheduler:       lr.Greedy,
		CheckInvariants: true,
	})
	if err != nil {
		panic(err)
	}
	// The alternating chain is rich in initial sinks and sources, so NewPR
	// pays several parity-fixing dummy steps on top of the real reversals.
	fmt.Printf("reversals=%d dummy=%d\n", rep.TotalReversals, rep.DummySteps)
	// Output: reversals=21 dummy=9
}

// ExampleVerifySimulation machine-checks Theorems 5.2/5.4 on one topology.
func ExampleVerifySimulation() {
	rep, err := lr.VerifySimulation(lr.BadChain(8), 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("orientations-equal=%v real-steps-match=%v\n",
		rep.OrientationsEq, rep.NewPRSteps-rep.DummySteps == rep.OneStepPRSteps)
	// Output: orientations-equal=true real-steps-match=true
}

// ExampleRunDistributed executes the protocol with one goroutine per node.
func ExampleRunDistributed() {
	rep, err := lr.RunDistributed(context.Background(), lr.BadChain(8), lr.DistPR)
	if err != nil {
		panic(err)
	}
	fmt.Printf("reversals=%d oriented=%v\n", rep.TotalReversals, rep.DestinationOriented)
	// Output: reversals=8 oriented=true
}

// ExampleNewRouter repairs a route after a link failure.
func ExampleNewRouter() {
	r, err := lr.NewRouter(lr.GoodChain(5))
	if err != nil {
		panic(err)
	}
	if _, err := r.Stabilize(); err != nil {
		panic(err)
	}
	if err := r.RemoveLink(1, 2); err != nil {
		panic(err)
	}
	if _, err := r.Stabilize(); err != nil {
		panic(err)
	}
	part, err := r.Partitioned(4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("node 4 partitioned=%v\n", part)
	// Output: node 4 partitioned=true
}

// ExampleNetworkSnapshot_RouteInto routes over a lock-free epoch snapshot
// of a live network: one atomic load, then an O(path) walk down strictly
// decreasing heights. A nil buffer allocates the path.
func ExampleNetworkSnapshot_RouteInto() {
	network, err := lr.NewDynamicNetwork(lr.GoodChain(6))
	if err != nil {
		panic(err)
	}
	defer network.Stop()
	if err := network.AwaitQuiescence(); err != nil {
		panic(err)
	}
	snap := network.ReadSnapshot() // never nil; immutable under churn
	path, ok := snap.RouteInto(5, 0, snap.NumNodes(), nil)
	fmt.Printf("path=%v ok=%v quiescent=%v\n", path, ok, snap.Quiescent)
	// Output: path=[5 4 3 2 1 0] ok=true quiescent=true
}

// ExampleServe boots the HTTP routing service over a live network and
// queries a route while the protocol keeps running underneath.
func ExampleServe() {
	network, err := lr.NewDynamicNetwork(lr.GoodChain(5))
	if err != nil {
		panic(err)
	}
	defer network.Stop()
	if err := network.AwaitQuiescence(); err != nil {
		panic(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lr.Serve(ctx, l, network, lr.ServeConfig{Topology: "chain"}) }()

	resp, err := http.Get("http://" + l.Addr().String() + "/route/4")
	if err != nil {
		panic(err)
	}
	var route struct {
		Hops int         `json:"hops"`
		Path []lr.NodeID `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&route); err != nil {
		panic(err)
	}
	resp.Body.Close()
	fmt.Printf("hops=%d path=%v\n", route.Hops, route.Path)

	cancel() // graceful drain
	if err := <-done; err != nil {
		panic(err)
	}
	// Output: hops=4 path=[4 3 2 1 0]
}
