// Package p2pbackup is a peer-to-peer backup system with
// lifetime-aware partner selection, reproducing Bernard & Le Fessant,
// "Optimizing peer-to-peer backup using lifetime estimations"
// (DaMaP/EDBT workshop 2009).
//
// The library has two halves:
//
//   - A live backup system: archives are encrypted, Reed-Solomon coded
//     (any k of n blocks restore), spread over partner peers chosen by
//     the paper's age-based acceptance rule, monitored, audited with
//     proofs of storage, and repaired when too few blocks are visible.
//     See NewNode, NewDirectory and the examples/ directory.
//
//   - A discrete-event simulator reproducing the paper's evaluation:
//     25,000-peer populations with the paper's four behaviour profiles,
//     repair-threshold sweeps (figures 1-2), fixed-age observers
//     (figure 3) and cumulative loss tracking (figure 4). See
//     DefaultSimConfig, NewSimulation and RunExperimentContext.
//
// This root package is a facade: it re-exports the stable surface of
// the internal packages so downstream code has one import.
package p2pbackup

import (
	"context"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/churn"
	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/erasure"
	"p2pbackup/internal/experiments"
	"p2pbackup/internal/lifetime"
	"p2pbackup/internal/node"
	"p2pbackup/internal/p2pnet"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
	"p2pbackup/internal/storage"
)

// ---------------------------------------------------------------------------
// Simulation (the paper's evaluation)

// SimConfig parameterises a simulation run; see DefaultSimConfig for
// the paper's parameters.
type SimConfig = sim.Config

// SimResult is a finished run's metrics.
type SimResult = sim.Result

// Simulation is a configured run.
type Simulation = sim.Simulation

// ObserverSpec declares a fixed-age observer peer (figure 3).
type ObserverSpec = sim.ObserverSpec

// DefaultSimConfig returns the paper's full-scale parameters (25,000
// peers, 50,000 rounds, n=256, k=128, threshold 148, quota 384).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// PaperObservers returns the paper's five observers (3 months, 1
// month, 1 week, 1 day, 1 hour).
func PaperObservers() []ObserverSpec { return sim.PaperObservers() }

// Probe observes simulation events (churn, repairs, losses, round
// boundaries); attach implementations via SimConfig.Probes. Embed
// BaseProbe and override only the hooks of interest.
type Probe = sim.Probe

// BaseProbe is a no-op Probe for embedding.
type BaseProbe = sim.BaseProbe

// NewSimulation validates the config and builds a run.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return sim.New(cfg) }

// RunSimulation is the one-call variant of NewSimulation().Run().
func RunSimulation(cfg SimConfig) (*SimResult, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// ---------------------------------------------------------------------------
// Campaigns (batches of simulation runs)

// Campaign is a declarative batch of simulation runs: a base config
// plus a list of variants.
type Campaign = experiments.Campaign

// Variant is one named point of a campaign.
type Variant = experiments.Variant

// Runner executes campaigns over a bounded worker pool with context
// cancellation and a typed event stream.
type Runner = experiments.Runner

// CampaignEvent is one element of a Runner's event stream.
type CampaignEvent = experiments.Event

// CampaignRow is one completed variant run.
type CampaignRow = experiments.Row

// ThresholdCampaign is the paper's figures 1/2 sweep as a campaign.
func ThresholdCampaign(cfg SimConfig, thresholds []int) (Campaign, error) {
	return experiments.ThresholdCampaign(cfg, thresholds)
}

// FocalCampaign is the paper's figures 3/4 run as a campaign.
func FocalCampaign(cfg SimConfig) Campaign { return experiments.FocalCampaign(cfg) }

// StrategyCampaign compares every partner-selection strategy.
func StrategyCampaign(cfg SimConfig) Campaign { return experiments.StrategyCampaign(cfg) }

// ExperimentOptions configures RunExperimentContext.
type ExperimentOptions = experiments.Options

// ExperimentSummary reports an experiment's outputs.
type ExperimentSummary = experiments.Summary

// RunExperimentContext regenerates a paper table or figure by id (see
// ExperimentNames: "fig1" ... "fig4", "costmodel", the ablations, the
// scenario campaigns — "replay" needs Options.TracePath — or "all").
// The campaign stops cleanly, including in-flight simulations, when ctx
// is done.
func RunExperimentContext(ctx context.Context, name string, opts ExperimentOptions) ([]ExperimentSummary, error) {
	return experiments.RunCtx(ctx, name, opts)
}

// ExperimentNames lists the runnable experiment ids.
func ExperimentNames() []string { return experiments.Names() }

// PaperProfiles returns the paper's four behaviour profiles (durable,
// stable, unstable, erratic).
func PaperProfiles() *churn.ProfileSet { return churn.PaperProfiles() }

// ---------------------------------------------------------------------------
// Scenarios (workloads beyond the paper's i.i.d. churn)

// ShockSpec schedules a correlated-failure event (power outage, ISP
// failure, regional loss); attach via SimConfig.Shocks.
type ShockSpec = sim.ShockSpec

// ShockEvent reports a shock firing to probes.
type ShockEvent = sim.ShockEvent

// AvailabilityModel generates peers' online/offline sessions; set
// SimConfig.Avail.
type AvailabilityModel = churn.AvailabilityModel

// AvailabilityModelByName resolves "session", "bernoulli",
// "always-online", or "diurnal[:AMP]".
func AvailabilityModelByName(name string) (AvailabilityModel, error) {
	return churn.ModelByName(name)
}

// DiurnalAvailability returns a day/night availability cycle of the
// given amplitude (0 = the paper's flat model, 1 = full swing) over the
// default session model.
func DiurnalAvailability(amplitude float64) AvailabilityModel {
	return churn.DefaultDiurnalModel(amplitude)
}

// ChurnTrace is a recorded churn event log: capture one with
// SimConfig.RecordTrace, replay it with SimConfig.Replay.
type ChurnTrace = churn.Trace

// ReadTraceFile loads a churn trace (CSV or JSONL, by extension).
func ReadTraceFile(path string) (*ChurnTrace, error) { return churn.ReadTraceFile(path) }

// WriteTraceFile stores a churn trace (CSV or JSONL, by extension).
func WriteTraceFile(path string, t *ChurnTrace) error { return churn.WriteTraceFile(path, t) }

// DiurnalCampaign sweeps the day/night amplitude.
func DiurnalCampaign(cfg SimConfig, amplitudes []float64) Campaign {
	return experiments.DiurnalCampaign(cfg, amplitudes)
}

// BlackoutCampaign compares correlated-failure scenarios against the
// i.i.d. baseline.
func BlackoutCampaign(cfg SimConfig) Campaign { return experiments.BlackoutCampaign(cfg) }

// ReplayCampaign runs every selection strategy over one recorded churn
// trace (paired comparison: identical churn, different strategies).
func ReplayCampaign(cfg SimConfig, trace *ChurnTrace) Campaign {
	return experiments.ReplayCampaign(cfg, trace)
}

// EstimatorCampaign compares age vs estimator-backed vs
// monitored-availability ranking under i.i.d., diurnal and (when trace
// is non-nil) replayed churn.
func EstimatorCampaign(cfg SimConfig, trace *ChurnTrace) Campaign {
	return experiments.EstimatorCampaign(cfg, trace)
}

// ---------------------------------------------------------------------------
// Erasure coding

// Encoder is a systematic Reed-Solomon codec over GF(2^8).
type Encoder = erasure.Encoder

// NewEncoder returns a codec for k data and m parity shards: any k of
// the k+m shards reconstruct the data. The paper uses k = m = 128.
func NewEncoder(k, m int) (*Encoder, error) { return erasure.New(k, m) }

// ---------------------------------------------------------------------------
// Lifetime estimation

// LifetimeEstimator predicts expected remaining lifetime from age.
type LifetimeEstimator = lifetime.Estimator

// AgeRank is the paper's non-parametric estimator: rank peers by age,
// capped at the stability horizon.
type AgeRank = lifetime.AgeRank

// ParetoModel is a fitted Pareto lifetime model.
type ParetoModel = lifetime.ParetoModel

// FitParetoLifetimes fits a Pareto model to observed complete
// lifetimes by maximum likelihood.
func FitParetoLifetimes(samples []float64) (ParetoModel, error) {
	return lifetime.FitPareto(samples)
}

// EmpiricalLifetimeModel is a distribution-free remaining-lifetime
// estimator backed by observed complete lifetimes.
type EmpiricalLifetimeModel = lifetime.EmpiricalModel

// NewEmpiricalLifetimeModel builds the distribution-free estimator from
// observed complete lifetimes.
func NewEmpiricalLifetimeModel(lifetimes []float64) (*EmpiricalLifetimeModel, error) {
	return lifetime.NewEmpiricalModel(lifetimes)
}

// ---------------------------------------------------------------------------
// Selection strategies

// Policy decides partnerships and ranks candidates on the
// observable/oracle knowledge split; set SimConfig.Policy or resolve
// one from a spec string with ParseStrategy.
type Policy = selection.Policy

// View is everything a Policy may be told about a peer, split into
// Observed (age, monitored availability history) and Oracle (ground
// truth for the oracle baselines).
type View = selection.View

// SelectionContext carries the current round into Policy calls.
type SelectionContext = selection.Context

// StrategyBuilder constructs a Policy from parsed spec parameters; use
// with RegisterStrategy.
type StrategyBuilder = selection.Builder

// EstimatorRanked ranks candidates by a lifetime estimator applied to
// their observed age (the "estimator:*" specs).
type EstimatorRanked = selection.EstimatorRanked

// MonitoredAvailabilityStrategy ranks candidates by monitored uptime
// over a window (the "monitored-availability[:W]" spec).
type MonitoredAvailabilityStrategy = selection.MonitoredAvailability

// ParseStrategy resolves a strategy spec string ("age:L=2160",
// "estimator:pareto", "monitored-availability:720", ...) with the
// paper's 90-day default horizon. See StrategyNames for the registry.
func ParseStrategy(spec string) (Policy, error) { return selection.Parse(spec) }

// RegisterStrategy adds a strategy spec to the registry, making it
// resolvable by ParseStrategy, the campaigns and the p2psim -strategy
// flag.
func RegisterStrategy(name string, b StrategyBuilder) { selection.Register(name, b) }

// StrategyNames lists the registered strategy spec names.
func StrategyNames() []string { return selection.Names() }

// AcceptanceFunction evaluates the paper's f(p1, p2) for acceptor age
// s1, requester age s2 and horizon L, all in rounds.
func AcceptanceFunction(s1, s2, l int64) float64 {
	return selection.AcceptanceFunction(s1, s2, l)
}

// ---------------------------------------------------------------------------
// Live backup system

// Node is a live backup peer (owner and host roles).
type Node = node.Node

// NodeConfig assembles a Node.
type NodeConfig = node.Config

// Directory is the membership/age view nodes select partners from.
type Directory = node.Directory

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return node.NewDirectory() }

// NewNode starts a backup peer.
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// RecoverFromNetwork rebuilds an owner's archives from the network
// given only its identity and peers to ask (total-local-loss restore).
func RecoverFromNetwork(name string, id *backup.Identity, t p2pnet.Transport, askPeers []string) ([][]backup.FileEntry, error) {
	return node.RecoverFromNetwork(name, id, t, askPeers)
}

// FileEntry is one file in an archive.
type FileEntry = backup.FileEntry

// Identity is an owner key pair.
type Identity = backup.Identity

// NewIdentity generates an owner key pair.
func NewIdentity() (*Identity, error) { return backup.NewIdentity() }

// ArchiveParams is the erasure shape of an archive.
type ArchiveParams = backup.Params

// DefaultArchiveParams returns the paper's 128+128 shape.
func DefaultArchiveParams() ArchiveParams { return backup.DefaultParams() }

// CollectDir captures a directory tree into archive entries.
func CollectDir(root string) ([]FileEntry, error) { return backup.CollectDir(root) }

// WriteDir materialises restored entries under root.
func WriteDir(root string, entries []FileEntry) error { return backup.WriteDir(root, entries) }

// InMemTransport is an in-process transport with fault injection.
type InMemTransport = p2pnet.InMemTransport

// NewInMemTransport returns an in-process message fabric.
func NewInMemTransport(seed uint64) *InMemTransport { return p2pnet.NewInMemTransport(seed) }

// TCPTransport carries the protocol over real sockets.
type TCPTransport = p2pnet.TCPTransport

// NewTCPTransport returns a TCP transport with default timeouts.
func NewTCPTransport() *TCPTransport { return p2pnet.NewTCPTransport() }

// MemStore is an in-memory block store.
func NewMemStore(quotaBytes int64) storage.Store { return storage.NewMemStore(quotaBytes) }

// OpenDiskStore opens an on-disk content-addressed block store.
func OpenDiskStore(dir string, quotaBytes int64) (storage.Store, error) {
	return storage.OpenDiskStore(dir, quotaBytes)
}

// ---------------------------------------------------------------------------
// Cost model (section 2.2.4)

// RepairCostEstimate returns the transfer time of a repair replacing d
// blocks of a paper-shaped archive on the paper's reference DSL link.
func RepairCostEstimate(d int) (costmodel.RepairCost, error) {
	return costmodel.EstimateRepair(costmodel.DSL2009(), costmodel.PaperCode(), d)
}
