// adaptive_redundancy: the fixed-vs-adaptive question on one
// population - what does retuning each archive's parity count online
// from monitored availability buy over the paper's constant n = 256?
//
// Two simulations run on the identical i.i.d. churn seed: one under
// the inert fixed policy, one under the adaptive default (grow when
// the measured availability no longer supports five-nines retention of
// the repair threshold k', shrink when the surplus outgrows the
// hysteresis band). The comparison prints the storage bill, the
// durability counters, and the parity traffic the adaptive policy
// spent - priced in upload hours on the paper's 2009 DSL uplink.
package main

import (
	"fmt"
	"log"
	"os"

	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/sim"
)

func main() {
	// The horizon matters: adaptive archives are born at the full n and
	// earn their dividend over time, while fixed archives decay between
	// rare repairs — short runs can even show the adaptive bill ahead.
	// ~2.3 simulated years is enough for the steady state to dominate.
	base := sim.DefaultConfig()
	base.NumPeers = 600
	base.Rounds = 20000

	type arm struct {
		spec string
		res  *sim.Result
	}
	arms := []arm{{spec: "fixed"}, {spec: "adaptive"}}
	for i := range arms {
		cfg := base
		cfg.RedundancySpec = arms[i].spec
		fmt.Fprintf(os.Stderr, "running %s (%d peers, %d rounds)...\n",
			arms[i].spec, cfg.NumPeers, cfg.Rounds)
		s, err := sim.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		arms[i].res = s.Run()
	}

	fmt.Printf("\n%-10s %12s %9s %7s %8s %8s %8s %13s\n",
		"policy", "placements", "mean n(t)", "hard", "outages", "grows", "shrinks", "parity cost")
	code := costmodel.Code{
		ArchiveBytes: 128 * costmodel.MB,
		K:            base.DataBlocks,
		M:            base.TotalBlocks - base.DataBlocks,
	}
	perBlock, err := costmodel.ParityUploadCost(code, 1, costmodel.DSL2009())
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range arms {
		col := a.res.Collector
		meanN := float64(base.TotalBlocks)
		if s := col.RedundancySeries(); s.Len() > 0 {
			_, meanN = s.At(s.Len() - 1)
		}
		fmt.Printf("%-10s %12d %9.1f %7d %8d %8d %8d %12.0fh\n",
			a.spec, a.res.FinalPlacements, meanN,
			col.TotalHardLosses(), col.TotalLosses(),
			col.RedundancyGrows(), col.RedundancyShrinks(),
			perBlock.Hours()*float64(col.ParityBlocksAdded()))
	}

	// The binomial estimate behind every adaptive decision, at the
	// paper's shape: how many blocks must an archive hold so that at
	// least k' = 148 stay visible with five-nines probability?
	fmt.Println("\nthe sizing curve (n holding >= k'=148 visible at five nines):")
	for _, p := range []float64{0.95, 0.9, 0.86, 0.8, 0.7} {
		n := redundancy.MinBlocksFor(148, 256, 148, p, redundancy.DefaultTargetDurability)
		fmt.Printf("  availability %.2f -> n(t) = %d\n", p, n)
	}

	fmt.Println("\nreading the table:")
	fmt.Println("  - adaptive archives are born at the full n = 256 and shrink")
	fmt.Println("    once their partners' availability has been measured, so the")
	fmt.Println("    steady-state footprint sits below the fixed bill at the same")
	fmt.Println("    hard-loss count;")
	fmt.Println("  - the dividend is bounded by the sizing curve above: at the")
	fmt.Println("    monitored ~0.86 the five-nines target needs ~190 of 256")
	fmt.Println("    blocks, and every grow decision is paid in DSL upload hours.")
}
