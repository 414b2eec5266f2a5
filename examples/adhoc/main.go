// Mobile ad-hoc network: the fully distributed protocol (one goroutine per
// radio) maintains routes to a gateway while links fail and appear at
// runtime — the "frequently changing topology" setting of the original
// Gafni–Bertsekas paper. Heights travel in messages; no component ever
// needs global knowledge.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	lr "linkreversal"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 24 radios in a random mesh; node 0 is the gateway.
	topo := lr.RandomConnected(24, 0.15, 13)
	net, err := lr.NewDynamicNetwork(topo)
	if err != nil {
		return err
	}
	defer net.Stop()

	if err := net.AwaitQuiescence(); err != nil {
		return err
	}
	s := net.ReadSnapshot()
	fmt.Printf("converged: %d reversal steps, %d messages across %d radios\n",
		s.Steps, s.Messages, topo.Graph.NumNodes())
	if path, ok := s.RouteInto(23, 0, 25, nil); ok {
		fmt.Printf("radio 23 → gateway: %v\n", path)
	}

	// Mobility: links churn while the protocol keeps running.
	rng := rand.New(rand.NewSource(3))
	edges := topo.Graph.Edges()
	down := make(map[int]bool)
	events := 0
	for i := 0; i < 12; i++ {
		k := rng.Intn(len(edges))
		e := edges[k]
		if down[k] {
			if err := net.AddLink(e.U, e.V); err != nil {
				return err
			}
			delete(down, k)
			fmt.Printf("event %2d: link {%d,%d} back up", i, e.U, e.V)
		} else {
			if err := net.FailLink(e.U, e.V); err != nil {
				return err
			}
			down[k] = true
			fmt.Printf("event %2d: link {%d,%d} down", i, e.U, e.V)
		}
		events++
		if err := net.AwaitQuiescence(); err != nil {
			var pe *lr.PartitionError
			if errors.As(err, &pe) {
				fmt.Printf(" → partition: radios %v cut off from gateway, healing\n", pe.Cut)
				if err := net.AddLink(e.U, e.V); err != nil {
					return err
				}
				delete(down, k)
				if err := net.AwaitQuiescence(); err != nil {
					return err
				}
				continue
			}
			return err
		}
		s := net.ReadSnapshot()
		path, ok := s.RouteInto(23, 0, 25, nil)
		fmt.Printf(" → repaired (total steps %d); route 23→0: %v ok=%v\n", s.Steps, path, ok)
	}
	return nil
}
