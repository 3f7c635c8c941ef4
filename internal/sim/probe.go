package sim

import (
	"p2pbackup/internal/churn"
	"p2pbackup/internal/metrics"
	"p2pbackup/internal/transfer"
)

// PeerEvent identifies a peer-scoped simulation event: which peer, in
// which round, with the peer's current age category and behaviour
// profile.
type PeerEvent struct {
	Round    int64
	Peer     int // population slot
	Category metrics.Category
	Profile  int
}

// RepairEvent reports a completed upload burst: a maintenance repair,
// or the initial d = n backup when Initial is set.
type RepairEvent struct {
	PeerEvent
	Initial  bool
	Uploaded int // blocks uploaded
	Dropped  int // placements abandoned (offline partners)
	// Elapsed is the episode's duration in rounds, from the round the
	// repair triggered (or the initial upload first acted) to this
	// completion: the run's time-to-backup observable. In instant mode
	// most episodes complete in the round they start (Elapsed 0); with
	// bandwidth classes the upload phase stretches it.
	Elapsed int64
}

// TransferEvent reports a block transfer's lifecycle under bandwidth
// scheduling (Config.BandwidthSpec): enqueued (start), delivered
// (complete), or killed by an endpoint dying (abort). Host is -1 for
// restores, which have a single endpoint.
type TransferEvent struct {
	Round   int64
	ID      int64 // scheduler transfer id, ascending in enqueue order
	Kind    transfer.Kind
	Owner   int
	Host    int     // receiving partner; -1 for a restore
	Blocks  float64 // transfer size (1 for uploads, k for restores)
	Elapsed int64   // rounds since enqueue (0 on start events)
}

// ChurnEvent reports a membership or session transition (join, leave,
// online, offline) in the same vocabulary churn traces use. Profile is
// the behaviour profile of the peer the event concerns (for a join, the
// new occupant), so recorded traces replay with profile attribution
// intact.
type ChurnEvent struct {
	Round   int64
	Peer    int
	Kind    churn.EventKind
	Profile int
}

// ShockEvent reports a correlated-failure shock firing: which spec
// (Index into Config.Shocks), how many peers it actually took down, and
// whether the victims departed permanently (Killed) or only went
// offline. Metrics use it to attribute subsequent losses to the shock.
type ShockEvent struct {
	Round   int64
	Index   int
	Name    string
	Victims int
	Killed  bool
}

// ObserverRepairEvent reports a repair completed by a fixed-age
// observer (the paper's Figure 3 instrumentation).
type ObserverRepairEvent struct {
	Round    int64
	Observer int // index into Config.Observers
	Name     string
}

// RedundancyEvent reports an adaptive redundancy decision: the policy
// retuned one archive's target block count (Config.RedundancySpec; never
// fires under the fixed policy). From > To is a shrink — the surplus
// placements were retired immediately, releasing host storage; To >
// From is a grow — a maintenance upload episode for the extra parity
// blocks starts this round and completes through the ordinary repair
// machinery (OnRepair).
type RedundancyEvent struct {
	Round int64
	Peer  int // population slot
	From  int // previous target block count n(t)
	To    int // new target block count
	// Availability is the monitored partner-availability estimate the
	// decision was based on.
	Availability float64
}

// RoundEndEvent closes a round with the per-category population, the
// denominator every rate metric normalises by.
type RoundEndEvent struct {
	Round      int64
	Population [metrics.NumCategories]int64
	// MeanRedundancy is the population's mean target block count n(t)
	// under an adaptive redundancy policy; 0 in fixed mode.
	MeanRedundancy float64
}

// probe event kind indices; each kind's EventSet bit is 1 << index.
const (
	evChurn = iota
	evDeath
	evRepair
	evOutage
	evHardLoss
	evStall
	evCancel
	evShock
	evObserverRepair
	evRoundEnd
	// Transfer events append after the historical kinds so the existing
	// EventSet bit values stay stable.
	evTransferStart
	evTransferComplete
	evTransferAbort
	// Redundancy events append after the transfer kinds, same stability
	// rule.
	evRedundancyChange
	numProbeEvents
)

// EventSet is a bitmask of probe event kinds, used by probes to
// declare which events they observe (see EventDeclarer).
type EventSet uint16

// Event kind bits for EventSet, one per Probe hook.
const (
	// EventChurn selects OnChurn.
	EventChurn EventSet = 1 << evChurn
	// EventDeath selects OnDeath.
	EventDeath EventSet = 1 << evDeath
	// EventRepair selects OnRepair.
	EventRepair EventSet = 1 << evRepair
	// EventOutage selects OnOutage.
	EventOutage EventSet = 1 << evOutage
	// EventHardLoss selects OnHardLoss.
	EventHardLoss EventSet = 1 << evHardLoss
	// EventStall selects OnStall.
	EventStall EventSet = 1 << evStall
	// EventCancel selects OnCancel.
	EventCancel EventSet = 1 << evCancel
	// EventShock selects OnShock.
	EventShock EventSet = 1 << evShock
	// EventObserverRepair selects OnObserverRepair.
	EventObserverRepair EventSet = 1 << evObserverRepair
	// EventRoundEnd selects OnRoundEnd.
	EventRoundEnd EventSet = 1 << evRoundEnd
	// EventTransferStart selects OnTransferStart.
	EventTransferStart EventSet = 1 << evTransferStart
	// EventTransferComplete selects OnTransferComplete.
	EventTransferComplete EventSet = 1 << evTransferComplete
	// EventTransferAbort selects OnTransferAbort.
	EventTransferAbort EventSet = 1 << evTransferAbort
	// EventRedundancyChange selects OnRedundancyChange.
	EventRedundancyChange EventSet = 1 << evRedundancyChange
)

// AllEvents selects every event kind: the implied declaration of a
// probe without an EventDeclarer.
const AllEvents EventSet = 1<<numProbeEvents - 1

// EventDeclarer is the optional capability interface a Probe implements
// to declare which events it observes. New compiles the probe list into
// per-event dispatch slices from these declarations, so each emitted
// event touches only the probes that asked for it — an event nobody
// observes is a loop over an empty slice, with zero interface calls.
// A probe that does not implement EventDeclarer is dispatched every
// event kind. Declaring too few events means silently missed callbacks;
// declaring extra ones is merely a few wasted no-op calls.
type EventDeclarer interface {
	// ProbeEvents returns the set of events the probe observes.
	ProbeEvents() EventSet
}

// probeEvents returns a probe's declared event set, or AllEvents for
// probes without a declaration.
func probeEvents(p Probe) EventSet {
	if d, ok := p.(EventDeclarer); ok {
		return d.ProbeEvents()
	}
	return AllEvents
}

// Probe observes a simulation run. The engine emits every protocol
// event to each attached probe, in attachment order, at the moment the
// event happens; the built-in metrics collector, observer tracker and
// churn-trace recorder are themselves probes, so custom measurement
// (loss CDFs, bandwidth histograms, live dashboards) attaches the same
// way via Config.Probes without touching the engine.
//
// Probes run synchronously on the simulation goroutine: they must not
// block, and a probe instance must not be shared between concurrently
// running simulations (experiments.Variant.Probes is a factory for
// exactly this reason). Probes must not mutate simulation state; they
// may consume no randomness, so attaching or removing probes never
// changes a run's trajectory.
//
// Embed BaseProbe to implement only the events of interest.
type Probe interface {
	// OnChurn reports joins, departures and session flips.
	OnChurn(ChurnEvent)
	// OnDeath reports a departure about to be replaced; Category and
	// Profile describe the departing occupant.
	OnDeath(PeerEvent)
	// OnRepair reports a completed repair or initial backup.
	OnRepair(RepairEvent)
	// OnOutage reports an archive becoming unrecoverable from online
	// peers (the paper's "data lost" event).
	OnOutage(PeerEvent)
	// OnHardLoss reports a permanently lost archive (alive blocks < k).
	OnHardLoss(PeerEvent)
	// OnStall reports a round in which a peer needed repair but could
	// not proceed.
	OnStall(PeerEvent)
	// OnCancel reports a pending repair aborted after visibility
	// recovered.
	OnCancel(PeerEvent)
	// OnShock reports a correlated-failure shock firing.
	OnShock(ShockEvent)
	// OnObserverRepair reports a fixed-age observer completing a repair.
	OnObserverRepair(ObserverRepairEvent)
	// OnRoundEnd closes each round with the category populations.
	OnRoundEnd(RoundEndEvent)
	// OnTransferStart reports a transfer enqueued on a peer's link
	// (bandwidth scheduling only; never fires in instant mode).
	OnTransferStart(TransferEvent)
	// OnTransferComplete reports a transfer delivered.
	OnTransferComplete(TransferEvent)
	// OnTransferAbort reports a transfer killed by an endpoint dying.
	OnTransferAbort(TransferEvent)
	// OnRedundancyChange reports an adaptive redundancy policy retuning
	// one archive's target block count (never fires in fixed mode).
	OnRedundancyChange(RedundancyEvent)
}

// BaseProbe is a no-op Probe for embedding: override only the hooks a
// probe cares about.
type BaseProbe struct{}

// OnChurn implements Probe.
func (BaseProbe) OnChurn(ChurnEvent) {}

// OnDeath implements Probe.
func (BaseProbe) OnDeath(PeerEvent) {}

// OnRepair implements Probe.
func (BaseProbe) OnRepair(RepairEvent) {}

// OnOutage implements Probe.
func (BaseProbe) OnOutage(PeerEvent) {}

// OnHardLoss implements Probe.
func (BaseProbe) OnHardLoss(PeerEvent) {}

// OnStall implements Probe.
func (BaseProbe) OnStall(PeerEvent) {}

// OnCancel implements Probe.
func (BaseProbe) OnCancel(PeerEvent) {}

// OnShock implements Probe.
func (BaseProbe) OnShock(ShockEvent) {}

// OnObserverRepair implements Probe.
func (BaseProbe) OnObserverRepair(ObserverRepairEvent) {}

// OnRoundEnd implements Probe.
func (BaseProbe) OnRoundEnd(RoundEndEvent) {}

// OnTransferStart implements Probe.
func (BaseProbe) OnTransferStart(TransferEvent) {}

// OnTransferComplete implements Probe.
func (BaseProbe) OnTransferComplete(TransferEvent) {}

// OnTransferAbort implements Probe.
func (BaseProbe) OnTransferAbort(TransferEvent) {}

// OnRedundancyChange implements Probe.
func (BaseProbe) OnRedundancyChange(RedundancyEvent) {}

// ---------------------------------------------------------------------------
// Built-in probes: the metrics layer, expressed as probes.

// collectorProbe feeds a metrics.Collector (Figures 1, 2 and 4).
type collectorProbe struct {
	BaseProbe
	col *metrics.Collector
}

// ProbeEvents declares the events the collector consumes, so churn and
// death traffic — the bulk of a round's events — skips it entirely.
func (collectorProbe) ProbeEvents() EventSet {
	return EventRepair | EventOutage | EventHardLoss | EventStall | EventShock |
		EventRoundEnd | EventTransferComplete | EventTransferAbort |
		EventRedundancyChange
}

func (p collectorProbe) OnRedundancyChange(e RedundancyEvent) {
	p.col.RecordRedundancyChange(e.Round, e.From, e.To)
}

func (p collectorProbe) OnRepair(e RepairEvent) {
	p.col.RecordRepair(e.Round, e.Category, e.Initial, e.Uploaded, e.Dropped)
	p.col.RecordBackupTime(e.Round, float64(e.Elapsed))
}

func (p collectorProbe) OnTransferComplete(e TransferEvent) {
	if e.Kind == transfer.Restore {
		p.col.RecordRestoreTime(e.Round, float64(e.Elapsed))
	}
}

func (p collectorProbe) OnTransferAbort(e TransferEvent) {
	if e.Kind == transfer.Restore {
		p.col.RecordRestoreFailed(e.Round)
	}
}

func (p collectorProbe) OnOutage(e PeerEvent) {
	p.col.RecordOutage(e.Round, e.Category)
}

func (p collectorProbe) OnHardLoss(e PeerEvent) {
	p.col.RecordHardLoss(e.Round, e.Category)
}

func (p collectorProbe) OnStall(e PeerEvent) {
	p.col.RecordStall(e.Round, e.Category)
}

func (p collectorProbe) OnShock(e ShockEvent) {
	p.col.RecordShock(e.Round, e.Victims)
}

func (p collectorProbe) OnRoundEnd(e RoundEndEvent) {
	for cat := metrics.Category(0); cat < metrics.NumCategories; cat++ {
		p.col.AddPeerRounds(e.Round, cat, e.Population[cat])
	}
	if e.MeanRedundancy > 0 {
		p.col.RecordRedundancyLevel(e.Round, e.MeanRedundancy)
	}
	p.col.EndRound(e.Round, e.Population)
}

// observerProbe feeds a metrics.ObserverTracker (Figure 3).
type observerProbe struct {
	BaseProbe
	obs *metrics.ObserverTracker
}

// ProbeEvents declares the single event the tracker consumes.
func (observerProbe) ProbeEvents() EventSet { return EventObserverRepair }

func (p observerProbe) OnObserverRepair(e ObserverRepairEvent) {
	p.obs.RecordRepair(e.Round, e.Observer)
}

// traceProbe records churn events into a replayable churn.Trace.
type traceProbe struct {
	BaseProbe
	trace *churn.Trace
}

// ProbeEvents declares the single event the recorder consumes.
func (traceProbe) ProbeEvents() EventSet { return EventChurn }

func (p traceProbe) OnChurn(e ChurnEvent) {
	p.trace.AppendProfile(e.Round, int32(e.Peer), e.Kind, int16(e.Profile))
}
