// Command lrd is the long-running link-reversal routing daemon: it owns a
// live DynamicNetwork and serves concurrent HTTP route, orientation and
// status queries from lock-free epoch snapshots while link churn (applied
// through POST /links and /churn) is repaired by the protocol underneath.
//
// Usage:
//
//	lrd -addr 127.0.0.1:8080 -topo grid -n 10000 \
//	    [-shards 8] [-partition locality] \
//	    [-faults flaky] [-seed 1] [-publish 25ms] \
//	    [-log-level info] [-pprof] [-flightrec] [-flightrec-sample 1]
//
// The daemon logs through log/slog (text handler, -log-level selects the
// threshold), stabilizes the initial topology, emits one
// `msg=listening url=http://HOST:PORT` record once the socket is bound,
// and serves until SIGINT/SIGTERM, then drains gracefully. With -flightrec
// the engine observer is armed: per-shard telemetry joins /metrics and
// /debug/vars, the protocol flight recorder serves /debug/events and
// /debug/trace, and SIGQUIT dumps a Chrome trace-event file next to the
// daemon while it keeps serving. -pprof mounts net/http/pprof under
// /debug/pprof/. See docs/OPERATIONS.md for the endpoint and metrics
// reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	lr "linkreversal"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lrd:", err)
		os.Exit(1)
	}
}

// checkEngine validates -engine, which survives only so existing command
// lines keep working: the sharded runtime is the only engine, and one node
// per shard (-shards n) gives every node its own goroutine.
func checkEngine(s string) error {
	switch strings.ToLower(s) {
	case "sharded":
		return nil
	case "goroutine", "goroutine-per-node":
		return fmt.Errorf("-engine %s was removed: the sharded runtime is the only engine; for one goroutine per node, set -shards to the node count", s)
	default:
		return fmt.Errorf("unknown engine %q (sharded)", s)
	}
}

func parsePartition(s string) (lr.DistPartition, error) {
	switch strings.ToLower(s) {
	case "", "block":
		return lr.DistPartitionBlock, nil
	case "hash":
		return lr.DistPartitionHash, nil
	case "locality":
		return lr.DistPartitionLocality, nil
	default:
		return 0, fmt.Errorf("unknown partition %q (block, hash, locality)", s)
	}
}

func parseFaults(s string, seed int64) (*lr.NetworkAdversary, error) {
	switch strings.ToLower(s) {
	case "", "none", "reliable":
		return nil, nil
	case "lossy":
		return lr.LossyNetwork(seed), nil
	case "flaky":
		return lr.FlakyNetwork(seed), nil
	case "adversarial":
		return lr.AdversarialNetwork(seed), nil
	default:
		return nil, fmt.Errorf("unknown fault scenario %q (none, lossy, flaky, adversarial)", s)
	}
}

// parseTopology maps -topo/-n onto a workload generator. Unlike the batch
// tools, -n is always the total node budget: grid picks the most balanced
// r×c factorization with r·c ≥ n, so "-topo grid -n 10000" is a 100×100
// grid. That is why lrd keeps this table instead of the batch tools'
// workload.ByName, whose grid is n×n: the benchmark's serve workloads start
// lrd with "-topo grid -n N" and rely on the budget reading.
func parseTopology(name string, n int, seed int64) (*lr.Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("need at least 2 nodes, got %d", n)
	}
	switch strings.ToLower(name) {
	case "chain", "good-chain":
		return lr.GoodChain(n), nil
	case "bad-chain":
		return lr.BadChain(n - 1), nil
	case "star":
		return lr.Star(n), nil
	case "grid":
		r := int(math.Sqrt(float64(n)))
		c := (n + r - 1) / r
		return lr.Grid(r, c), nil
	case "tree":
		return lr.Tree(n, seed), nil
	case "ring":
		return lr.Ring(n, seed), nil
	case "random":
		return lr.RandomConnected(n, 0.1, seed), nil
	default:
		return nil, fmt.Errorf("unknown topology %q (chain, bad-chain, star, grid, tree, ring, random)", name)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		topoName  = fs.String("topo", "grid", "topology: chain, bad-chain, star, grid, tree, ring, random")
		n         = fs.Int("n", 10000, "total node budget")
		engName   = fs.String("engine", "sharded", "execution engine; sharded is the only one (deprecated)")
		shards    = fs.Int("shards", 0, "shard count (0 = GOMAXPROCS; clamped to the node count, which gives one node per shard)")
		partName  = fs.String("partition", "block", "sharded partition: block, hash, locality")
		faultName = fs.String("faults", "none", "fault scenario: none, lossy, flaky, adversarial")
		seed      = fs.Int64("seed", 1, "seed for random topologies and the fault adversary")
		publish   = fs.Duration("publish", 25*time.Millisecond, "epoch snapshot cadence (0 = publish only at quiescence)")
		logLevel  = fs.String("log-level", "info", "log verbosity: debug, info, warn, error")
		pprofOn   = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		flightrec = fs.Bool("flightrec", false, "arm the engine flight recorder: per-shard telemetry on /metrics and /debug/vars, protocol events on /debug/events, Chrome traces on /debug/trace and SIGQUIT")
		frSample  = fs.Int("flightrec-sample", 1, "flight recorder sampling: record every k-th event (deterministic in -seed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(out, &slog.HandlerOptions{Level: level}))
	if err := checkEngine(*engName); err != nil {
		return err
	}
	partition, err := parsePartition(*partName)
	if err != nil {
		return err
	}
	adversary, err := parseFaults(*faultName, *seed)
	if err != nil {
		return err
	}
	topo, err := parseTopology(*topoName, *n, *seed)
	if err != nil {
		return err
	}
	if *frSample < 1 {
		return fmt.Errorf("bad -flightrec-sample %d: want >= 1", *frSample)
	}

	var observer *lr.EngineObserver
	if *flightrec {
		observer = lr.NewEngineObserver()
		observer.Seed = *seed
		observer.Sample = *frSample
		observer.OnDump = func(reason string, events []lr.EngineEvent) {
			logger.Warn("flight recorder dump", "reason", reason, "events", len(events))
		}
	}

	network, err := lr.NewDynamicNetworkWith(topo, lr.DynNetOptions{
		Shards:       *shards,
		Partition:    partition,
		Adversary:    adversary,
		PublishEvery: *publish,
		Observer:     observer,
	})
	if err != nil {
		return err
	}
	defer network.Stop()

	start := time.Now()
	if err := network.AwaitQuiescence(); err != nil {
		// A partition in the initial topology is a servable state — the
		// snapshot names the cut — so report it and serve anyway.
		logger.Warn("initial topology partitioned", "err", err)
	}
	logger.Info("stabilized",
		"topology", topo.Name,
		"elapsed", time.Since(start).Round(time.Millisecond),
		"nodes", topo.Graph.NumNodes(),
		"shards", *shards,
		"faults", scenarioName(adversary))

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("listening", "url", "http://"+l.Addr().String())

	if observer != nil {
		go dumpOnSIGQUIT(ctx, logger, observer)
	}
	cfg := lr.ServeConfig{
		Topology:       topo.Name,
		Shards:         *shards,
		Partition:      partition.String(),
		Scenario:       scenarioName(adversary),
		Seed:           *seed,
		PublishEveryMS: publish.Milliseconds(),
		Observer:       observer,
		Pprof:          *pprofOn,
	}
	return lr.Serve(ctx, l, network, cfg)
}

func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (debug, info, warn, error)", s)
	}
}

// dumpOnSIGQUIT writes the flight recorder to a Chrome trace-event file on
// every SIGQUIT until ctx is cancelled — the classic "dump your state"
// signal, usable while the daemon keeps serving.
func dumpOnSIGQUIT(ctx context.Context, logger *slog.Logger, observer *lr.EngineObserver) {
	qc := make(chan os.Signal, 1)
	signal.Notify(qc, syscall.SIGQUIT)
	defer signal.Stop(qc)
	for {
		select {
		case <-ctx.Done():
			return
		case <-qc:
			path := fmt.Sprintf("lrd-trace-%d.json", time.Now().Unix())
			f, err := os.Create(path)
			if err != nil {
				logger.Error("flight recorder dump failed", "err", err)
				continue
			}
			err = observer.ChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				logger.Error("flight recorder dump failed", "path", path, "err", err)
				continue
			}
			logger.Info("flight recorder dumped", "path", path, "events", len(observer.Events(0)))
		}
	}
}

func scenarioName(a *lr.NetworkAdversary) string {
	if a == nil {
		return "reliable"
	}
	return a.Scenario
}
