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
//   - The paper's live data path, not its protocol: an archive is
//     encrypted, Reed-Solomon coded (any k of n blocks restore), stored
//     one block per peer directory, and verified or restored from any k
//     of them (internal/backup over internal/erasure and
//     internal/storage, driven by cmd/p2pbackup). Partner selection,
//     monitoring and repair exist only in the simulator.
//
// The examples/ directory shows the simulator end to end; cmd/p2psim
// and cmd/p2pbackup are the command-line tools.
package p2pbackup
