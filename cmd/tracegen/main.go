// Command tracegen generates synthetic churn traces from the paper's
// behaviour profiles and analyses existing traces (Pareto lifetime
// fits, availability summaries).
//
// Usage:
//
//	tracegen gen -peers 500 -rounds 20000 -seed 1 -out trace.csv
//	tracegen gen -peers 500 -rounds 20000 -avail diurnal:0.8 -out trace.jsonl
//	tracegen fit -in trace.csv
//
// The file format follows the -out (and -in) extension (.jsonl/.ndjson
// for JSONL, CSV otherwise) and carries each peer's behaviour profile, so
// a generated trace round-trips into the simulator:
//
//	p2psim -exp replay -trace trace.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/lifetime"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "fit":
		err = cmdFit(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracegen gen -peers N -rounds R [-seed S] [-avail MODEL] -out FILE
  tracegen fit -in FILE`)
	os.Exit(2)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	peers := fs.Int("peers", 500, "population size")
	rounds := fs.Int64("rounds", 20000, "rounds to simulate (1 round = 1 hour)")
	seed := fs.Uint64("seed", 1, "random seed")
	avail := fs.String("avail", "session", "availability model: "+strings.Join(churn.AvailabilityNames(), ", ")+
		" (diurnal:AMP sets the day/night amplitude, default 0.6)")
	out := fs.String("out", "trace.csv", "output file (.jsonl/.ndjson for JSONL, else CSV)")
	_ = fs.Parse(args)

	cfg := sim.DefaultConfig()
	cfg.NumPeers = *peers
	cfg.Rounds = *rounds
	cfg.Seed = *seed
	cfg.AvailSpec = *avail
	cfg.RecordTrace = true
	// Keep the run cheap: a tiny archive shape still drives the same
	// churn process, and churn is all a trace captures.
	cfg.TotalBlocks = 16
	cfg.DataBlocks = 8
	cfg.RepairThreshold = 10
	cfg.Quota = 48
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res := s.Run()
	res.Trace.Sort()
	if err := churn.WriteTraceFile(*out, res.Trace); err != nil {
		return err
	}
	fmt.Printf("wrote %d events for %d peers over %d rounds to %s (%d departures)\n",
		len(res.Trace.Events), *peers, *rounds, *out, res.Deaths)
	return nil
}

func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ExitOnError)
	in := fs.String("in", "", "trace to analyse (.jsonl/.ndjson for JSONL, else CSV)")
	_ = fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("fit needs -in")
	}
	trace, err := churn.ReadTraceFile(*in)
	if err != nil {
		return err
	}
	lifetimes := trace.Lifetimes()
	if len(lifetimes) < 10 {
		return fmt.Errorf("only %d completed lifetimes in trace; need >= 10", len(lifetimes))
	}
	var st stats.Stream
	for _, l := range lifetimes {
		st.Add(l)
	}
	fmt.Printf("completed lifetimes: %s (hours)\n", st.String())

	model, ks, err := lifetime.ParetoGoodnessOfFit(lifetimes)
	if err != nil {
		return err
	}
	fmt.Printf("Pareto MLE: xm=%.1f alpha=%.3f (KS distance %.4f)\n", model.Xm, model.Alpha, ks)
	if alpha, err := lifetime.TailExponent(lifetimes); err == nil {
		fmt.Printf("log-log tail fit: alpha=%.3f\n", alpha)
	}
	for _, age := range []float64{24, 7 * 24, 30 * 24, 90 * 24} {
		fmt.Printf("expected remaining lifetime at age %5.0fh: %8.0fh\n",
			age, model.ExpectedRemaining(age))
	}
	return nil
}
