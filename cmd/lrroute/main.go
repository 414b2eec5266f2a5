// Command lrroute drives the dynamic-topology router from an event script,
// printing the effect of every event. It demonstrates TORA-style route
// maintenance from the command line.
//
// Usage:
//
//	lrroute -topo grid -n 4 -script events.txt
//	echo "fail 0 1
//	route 15
//	heal 0 1" | lrroute -topo grid -n 4 -script -
//
// Script grammar (one event per line, '#' comments):
//
//	fail U V     remove link {U,V} and re-stabilize
//	heal U V     add link {U,V} and re-stabilize
//	route U      print the current route from U to the destination
//	status       print reversal/event counters and partition summary
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	lr "linkreversal"
	"linkreversal/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrroute:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("lrroute", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "grid", "topology: "+workload.Names)
		n        = fs.Int("n", 4, "topology size parameter")
		p        = fs.Float64("p", 0.3, "edge density for random topology")
		seed     = fs.Int64("seed", 1, "random seed")
		script   = fs.String("script", "-", "event script path, or - for stdin")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	topo, err := workload.ByName(*topoName, *n, *p, *seed)
	if err != nil {
		return err
	}
	r, err := lr.NewRouter(topo)
	if err != nil {
		return err
	}
	steps, err := r.Stabilize()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ready: %s, destination %d, initial stabilization %d steps\n",
		topo.Name, topo.Dest, steps)

	var src io.Reader = stdin
	if *script != "-" {
		f, err := os.Open(*script)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	return execScript(r, src, stdout)
}

// execScript interprets the event script line by line.
func execScript(r *lr.Router, src io.Reader, out io.Writer) error {
	scanner := bufio.NewScanner(src)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := execLine(r, line, out); err != nil {
			return fmt.Errorf("line %d (%q): %w", lineNo, line, err)
		}
	}
	return scanner.Err()
}

func execLine(r *lr.Router, line string, out io.Writer) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "fail":
		u, v, err := parsePair(fields)
		if err != nil {
			return err
		}
		if err := r.RemoveLink(u, v); err != nil {
			return err
		}
		steps, err := r.Stabilize()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "fail {%d,%d}: repaired with %d reversal steps\n", u, v, steps)
	case "heal":
		u, v, err := parsePair(fields)
		if err != nil {
			return err
		}
		if err := r.AddLink(u, v); err != nil {
			return err
		}
		steps, err := r.Stabilize()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "heal {%d,%d}: stabilized with %d reversal steps\n", u, v, steps)
	case "route":
		if len(fields) != 2 {
			return fmt.Errorf("route needs one node")
		}
		u, err := parseNode(fields[1])
		if err != nil {
			return err
		}
		path, err := r.Route(u)
		if err != nil {
			fmt.Fprintf(out, "route %d: %v\n", u, err)
			return nil
		}
		fmt.Fprintf(out, "route %d: %v (%d hops)\n", u, path, len(path)-1)
	case "status":
		partitioned := 0
		for u := 0; u < r.NumNodes(); u++ {
			p, err := r.Partitioned(lr.NodeID(u))
			if err != nil {
				return err
			}
			if p {
				partitioned++
			}
		}
		fmt.Fprintf(out, "status: %d reversals, %d events, %d partitioned nodes, acyclic=%v\n",
			r.Reversals(), r.Events(), partitioned, r.Acyclic())
	default:
		return fmt.Errorf("unknown command %q", fields[0])
	}
	return nil
}

func parsePair(fields []string) (lr.NodeID, lr.NodeID, error) {
	if len(fields) != 3 {
		return 0, 0, fmt.Errorf("%s needs two nodes", fields[0])
	}
	u, err := parseNode(fields[1])
	if err != nil {
		return 0, 0, err
	}
	v, err := parseNode(fields[2])
	if err != nil {
		return 0, 0, err
	}
	return u, v, nil
}

func parseNode(s string) (lr.NodeID, error) {
	u, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad node %q", s)
	}
	return lr.NodeID(u), nil
}
