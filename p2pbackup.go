// Package p2pbackup is a peer-to-peer backup system with
// lifetime-aware partner selection, reproducing Bernard & Le Fessant,
// "Optimizing peer-to-peer backup using lifetime estimations"
// (DaMaP/EDBT workshop 2009).
//
// This root package exports nothing; it holds the repository's
// benchmarks and the tests that pin the entry points README documents.
// The code lives in two halves under internal/:
//
//   - A discrete-event simulator reproducing the paper's evaluation:
//     25,000-peer populations with the paper's four behaviour profiles,
//     repair-threshold sweeps (figures 1-2), fixed-age observers
//     (figure 3) and cumulative loss tracking (figure 4). A run is
//     internal/sim (sim.DefaultConfig, sim.New, Simulation.Run); a
//     batch of runs, and every paper figure by id, is
//     internal/experiments (Runner, RunCtx, Names).
//
//   - A live backup system: archives are encrypted, Reed-Solomon coded
//     (any k of n blocks restore), spread over partner peers chosen by
//     the paper's age-based acceptance rule, monitored, audited with
//     proofs of storage, and repaired when too few blocks are visible:
//     internal/node (node.New, node.NewDirectory,
//     node.RecoverFromNetwork) over internal/p2pnet's transports.
//
// The examples/ directory shows each of them end to end; cmd/p2psim and
// cmd/p2pbackup are the command-line tools.
package p2pbackup
