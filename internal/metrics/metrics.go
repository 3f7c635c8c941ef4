// Package metrics implements the measurement layer of the evaluation:
// per-age-category event accounting with peer-round denominators
// (Figures 1 and 2), per-observer cumulative repair series (Figure 3),
// and per-category cumulative loss-per-peer series (Figure 4).
//
// Normalisation: the paper plots "average number ... per 1000 peers"
// against the repair threshold. The only reading consistent with the
// observer counts in its Figure 3 is a per-round rate:
//
//	rate(category) = events(category) / peerRounds(category) * 1000
//
// where peerRounds is the total number of (peer, round) pairs spent in
// the category. Figure 4's "average number of lost archives per peers"
// is the integral over rounds of lossesThisRound/populationThisRound,
// i.e. the expected cumulative losses of a peer that stayed in the
// category the whole time.
//
// Paper mapping (in the style of internal/selection):
//
//	§4.2.1 age categories       Category (newcomer <3mo, young 3-6mo, old 6-18mo, elder >18mo)
//	§4.2.1 "per 1000 peers"     Collector.RepairRatePer1000 / LossRatePer1000
//	§4.2.2 observer counts      ObserverTracker (Figure 3's cumulative step series)
//	Fig. 2 "data lost"          Counts.Outages (visible < k decode outages)
//	Fig. 4 losses per peer      Collector.LossSeries
//
// Beyond the paper: shock attribution. Correlated-failure scenarios
// (sim.ShockSpec) report firings through RecordShock, and losses within
// shockAttributionWindow of the latest shock are additionally counted
// as shock-attributed, splitting the loss metric by cause.
//
// The collector records what a campaign table, a p2psim summary or a
// figure reads, and nothing else: events are accounted by age category,
// not by behaviour profile, and the only series are the ones figures
// plot.
package metrics

import (
	"fmt"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/stats"
)

// Category is a peer age class (the paper's section 4.2.1 table).
// A peer's category changes as it ages; its profile never does.
type Category int

// The paper's four age categories.
const (
	Newcomer Category = iota // < 3 months
	Young                    // 3 - 6 months
	Old                      // 6 - 18 months
	Elder                    // > 18 months
	NumCategories
)

// Category boundaries in rounds (ages at which a peer moves up).
var categoryBounds = [...]int64{
	3 * churn.Month,  // Newcomer -> Young
	6 * churn.Month,  // Young -> Old
	18 * churn.Month, // Old -> Elder
}

var categoryNames = [...]string{"newcomer", "young", "old", "elder"}

// String returns the category name.
func (c Category) String() string {
	if c >= 0 && int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// CategoryOf classifies an age in rounds.
func CategoryOf(age int64) Category {
	switch {
	case age < categoryBounds[0]:
		return Newcomer
	case age < categoryBounds[1]:
		return Young
	case age < categoryBounds[2]:
		return Old
	default:
		return Elder
	}
}

// CategoryBound returns the age (in rounds) at which category c ends,
// or -1 for Elder (unbounded).
func CategoryBound(c Category) int64 {
	if int(c) < len(categoryBounds) {
		return categoryBounds[c]
	}
	return -1
}

// CategoryNames returns the four names in order.
func CategoryNames() []string { return append([]string(nil), categoryNames[:]...) }

// ---------------------------------------------------------------------------
// Collector

// Counts aggregates event totals for one category.
type Counts struct {
	PeerRounds     int64 // denominator: peer-rounds spent in the category
	Repairs        int64 // maintenance repairs completed
	InitialBackups int64 // initial d=n uploads completed (also "repairs" per the paper)
	Outages        int64 // decode outages: archive became unrecoverable from online peers (the paper's "data lost")
	HardLosses     int64 // archives permanently lost (alive blocks < k)
	StalledRounds  int64 // rounds spent in a decode outage while the owner was online
	BlocksUploaded int64 // total blocks uploaded by repairs
	BlocksDropped  int64 // placements abandoned at repair time (offline partners)
}

// Collector accumulates the run's measurements: per-category counts
// and the rates derived from them, the Figure 4 loss series, shock
// attribution, the time-to-safety distributions and the adaptive
// redundancy counters. It is not safe for concurrent use; one per
// simulation run.
type Collector struct {
	cats [NumCategories]Counts

	// Figure 4: per-category cumulative losses-per-peer series, sampled
	// every sampleEvery rounds.
	lossSeries  [NumCategories]*stats.Series
	lossAccum   [NumCategories]float64
	todayLosses [NumCategories]int64

	// Correlated-failure attribution: losses within
	// shockAttributionWindow rounds of the most recent shock are
	// counted as shock-attributed.
	shocks      int64
	shockLosses int64
	lastShock   int64

	// Time-to-safety distributions (the transfer engine's headline
	// metrics): rounds from a backup/repair episode triggering to its
	// last block landing, and rounds from restore demand to the archive
	// being fully downloaded.
	ttb            Durations
	ttr            Durations
	restoresFailed int64

	// Adaptive redundancy accounting (an adaptive RedundancySpec): grow/
	// shrink decision counts, the parity blocks they moved, and the mean
	// n(t) sampled as a time series (fixed mode records nothing).
	redunGrows    int64
	redunShrinks  int64
	parityAdded   int64
	parityDropped int64
	redunSeries   *stats.Series

	sampleEvery int64
	warmup      int64 // rounds excluded from rate numerators/denominators
}

// Durations is a duration distribution: streaming moments plus the raw
// samples, so campaigns can report quantiles (median, p95) alongside
// the mean. Samples are in rounds.
type Durations struct {
	stream  stats.Stream
	samples []float64
}

// Record adds one duration sample.
func (d *Durations) Record(v float64) {
	d.stream.Add(v)
	d.samples = append(d.samples, v)
}

// Merge folds other into d (cross-variant aggregation).
func (d *Durations) Merge(other *Durations) {
	d.stream.Merge(&other.stream)
	d.samples = append(d.samples, other.samples...)
}

// N returns the sample count.
func (d *Durations) N() int64 { return d.stream.N() }

// Mean returns the sample mean (0 when empty).
func (d *Durations) Mean() float64 { return d.stream.Mean() }

// Max returns the largest sample (0 when empty).
func (d *Durations) Max() float64 {
	if d.stream.N() == 0 {
		return 0
	}
	return d.stream.Max()
}

// Quantile returns the q-quantile of the samples (0 when empty).
func (d *Durations) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	v, err := stats.Quantile(d.samples, q)
	if err != nil {
		panic(err) // non-empty samples and engine-controlled q; a failure is a bug
	}
	return v
}

// shockAttributionWindow is how long after a shock a lost archive is
// still attributed to it, in rounds. Three days covers the repair
// backlog a large shock creates: repairs are bandwidth-bounded (the
// paper's section 2.2.4), so a mass outage keeps causing decode
// failures well after the lights come back on.
const shockAttributionWindow = 3 * churn.Day

// NewCollector returns a collector sampling time series every
// sampleEvery rounds (one day = 24 is the paper's plotting cadence).
// warmup rounds are excluded from the rate counters (pass 0 to measure
// everything).
func NewCollector(sampleEvery, warmup int64) *Collector {
	if sampleEvery <= 0 || warmup < 0 {
		panic(fmt.Sprintf("metrics: invalid collector params sample=%d warmup=%d", sampleEvery, warmup))
	}
	c := &Collector{
		sampleEvery: sampleEvery,
		warmup:      warmup,
		lastShock:   -2 * shockAttributionWindow, // "no shock yet"
	}
	for i := range c.lossSeries {
		c.lossSeries[i] = stats.NewSeries(Category(i).String() + " cumulative losses/peer")
	}
	c.redunSeries = stats.NewSeries("mean redundancy blocks/archive")
	return c
}

func (c *Collector) measured(round int64) bool { return round >= c.warmup }

// AddPeerRounds adds the per-round denominator: population peers spent
// this round in category cat.
func (c *Collector) AddPeerRounds(round int64, cat Category, population int64) {
	if c.measured(round) {
		c.cats[cat].PeerRounds += population
	}
}

// RecordRepair notes a completed repair by a peer of the given
// category. initial marks the first upload (d = n); uploaded is the
// number of blocks uploaded; dropped the placements abandoned.
func (c *Collector) RecordRepair(round int64, cat Category, initial bool, uploaded, dropped int) {
	if !c.measured(round) {
		return
	}
	cc := &c.cats[cat]
	if initial {
		cc.InitialBackups++
	} else {
		cc.Repairs++
	}
	cc.BlocksUploaded += int64(uploaded)
	cc.BlocksDropped += int64(dropped)
}

// RecordOutage notes a decode outage: the archive just became
// unrecoverable from currently online peers (visible < k). This is the
// event the paper's figures 2 and 4 count as a lost archive; it also
// covers every permanent loss, which starts as an outage.
func (c *Collector) RecordOutage(round int64, cat Category) {
	if !c.measured(round) {
		return
	}
	c.cats[cat].Outages++
	c.todayLosses[cat]++
	if round-c.lastShock <= shockAttributionWindow {
		c.shockLosses++
	}
}

// RecordShock notes a correlated-failure shock that took down victims
// peers. Shocks are configuration-driven, so they are counted even
// during warmup; loss attribution still honours the warmup window via
// RecordOutage. A firing that hit nobody (all pool members already
// offline or departing) does not open the attribution window —
// attributing background losses to a shock with no victims would
// overstate the damage.
func (c *Collector) RecordShock(round int64, victims int) {
	c.shocks++
	if victims > 0 {
		c.lastShock = round
	}
}

// RecordHardLoss notes a permanently lost archive (alive < k): fewer
// than k blocks survive on living peers, so no reconnection can bring
// the data back. The preceding outage has already been counted by
// RecordOutage.
func (c *Collector) RecordHardLoss(round int64, cat Category) {
	if !c.measured(round) {
		return
	}
	c.cats[cat].HardLosses++
}

// RecordBackupTime notes a completed backup/repair episode that took
// the given number of rounds from trigger to last block landed.
func (c *Collector) RecordBackupTime(round int64, rounds float64) {
	if !c.measured(round) {
		return
	}
	c.ttb.Record(rounds)
}

// RecordRestoreTime notes a completed archive restore that took the
// given number of rounds from demand to fully downloaded.
func (c *Collector) RecordRestoreTime(round int64, rounds float64) {
	if !c.measured(round) {
		return
	}
	c.ttr.Record(rounds)
}

// RecordRestoreFailed notes a restore aborted before completion (the
// restoring peer died).
func (c *Collector) RecordRestoreFailed(round int64) {
	if !c.measured(round) {
		return
	}
	c.restoresFailed++
}

// TimeToBackup returns the backup/repair episode duration distribution.
func (c *Collector) TimeToBackup() *Durations { return &c.ttb }

// TimeToRestore returns the restore duration distribution.
func (c *Collector) TimeToRestore() *Durations { return &c.ttr }

// RestoresFailed returns the number of restores aborted by peer death.
func (c *Collector) RestoresFailed() int64 { return c.restoresFailed }

// RecordRedundancyChange notes an adaptive redundancy decision
// retuning one archive's target block count from from to to blocks.
func (c *Collector) RecordRedundancyChange(round int64, from, to int) {
	if !c.measured(round) || from == to {
		return
	}
	if to > from {
		c.redunGrows++
		c.parityAdded += int64(to - from)
	} else {
		c.redunShrinks++
		c.parityDropped += int64(from - to)
	}
}

// RecordRedundancyLevel notes the population's mean target block count
// for the redundancy time series; sampled on the same cadence as the
// Figure 4 series (the engine calls it once per round, pre-warmup
// included, since the series is a trajectory, not a rate).
func (c *Collector) RecordRedundancyLevel(round int64, mean float64) {
	if (round+1)%c.sampleEvery != 0 {
		return
	}
	c.redunSeries.Append(float64(round+1)/float64(churn.Day), mean)
}

// RedundancyGrows returns how many grow decisions the policy made.
func (c *Collector) RedundancyGrows() int64 { return c.redunGrows }

// RedundancyShrinks returns how many shrink decisions the policy made.
func (c *Collector) RedundancyShrinks() int64 { return c.redunShrinks }

// ParityBlocksAdded returns the parity blocks grow decisions scheduled
// for upload (the adaptive policy's bandwidth bill; price it with
// costmodel.ParityUploadCost).
func (c *Collector) ParityBlocksAdded() int64 { return c.parityAdded }

// ParityBlocksReclaimed returns the parity blocks shrink decisions
// retired (the adaptive policy's storage dividend).
func (c *Collector) ParityBlocksReclaimed() int64 { return c.parityDropped }

// RedundancySeries returns the mean-n(t) trajectory (empty in fixed
// mode).
func (c *Collector) RedundancySeries() *stats.Series { return c.redunSeries }

// RecordStall notes a round in which a peer needed repair but could not
// proceed (not enough visible blocks to decode, or owner offline).
func (c *Collector) RecordStall(round int64, cat Category) {
	if !c.measured(round) {
		return
	}
	c.cats[cat].StalledRounds++
}

// EndRound finalises a round; on sampling boundaries it extends the
// Figure 4 series. population is the current per-category population.
func (c *Collector) EndRound(round int64, population [NumCategories]int64) {
	if (round+1)%c.sampleEvery != 0 {
		return
	}
	day := float64(round+1) / float64(churn.Day)
	for cat := 0; cat < int(NumCategories); cat++ {
		if population[cat] > 0 {
			c.lossAccum[cat] += float64(c.todayLosses[cat]) / float64(population[cat])
		}
		c.lossSeries[cat].Append(day, c.lossAccum[cat])
		c.todayLosses[cat] = 0
	}
}

// Counts returns the aggregate counters for a category.
func (c *Collector) Counts(cat Category) Counts { return c.cats[cat] }

// RepairRatePer1000 returns the category's repairs per 1000
// peer-rounds, counting initial backups as repairs (the paper treats the
// first upload as one).
func (c *Collector) RepairRatePer1000(cat Category) float64 {
	cc := c.cats[cat]
	if cc.PeerRounds == 0 {
		return 0
	}
	return float64(cc.Repairs+cc.InitialBackups) / float64(cc.PeerRounds) * 1000
}

// LossRatePer1000 returns lost archives (decode outages, the paper's
// "data lost") per 1000 peer-rounds.
func (c *Collector) LossRatePer1000(cat Category) float64 {
	cc := c.cats[cat]
	if cc.PeerRounds == 0 {
		return 0
	}
	return float64(cc.Outages) / float64(cc.PeerRounds) * 1000
}

// LossSeries returns the Figure 4 series for a category: cumulative
// expected losses per peer, sampled daily.
func (c *Collector) LossSeries(cat Category) *stats.Series { return c.lossSeries[cat] }

// TotalRepairs sums maintenance repairs over all categories.
func (c *Collector) TotalRepairs() int64 {
	var t int64
	for i := range c.cats {
		t += c.cats[i].Repairs
	}
	return t
}

// TotalLosses sums lost archives (decode outages) over all categories.
func (c *Collector) TotalLosses() int64 {
	var t int64
	for i := range c.cats {
		t += c.cats[i].Outages
	}
	return t
}

// TotalShocks returns the number of correlated-failure shocks fired.
func (c *Collector) TotalShocks() int64 { return c.shocks }

// ShockAttributedLosses returns the lost archives that occurred within
// shockAttributionWindow rounds of a shock — the paper's loss metric
// split by cause, so campaigns can report how much of the damage the
// correlated failures did versus background churn.
func (c *Collector) ShockAttributedLosses() int64 { return c.shockLosses }

// TotalHardLosses sums permanent losses over all categories.
func (c *Collector) TotalHardLosses() int64 {
	var t int64
	for i := range c.cats {
		t += c.cats[i].HardLosses
	}
	return t
}

// ---------------------------------------------------------------------------
// Observer tracking (Figure 3)

// ObserverTracker records cumulative repairs for the paper's fixed-age
// observer peers.
type ObserverTracker struct {
	names  []string
	counts []int64
	series []*stats.Series
}

// NewObserverTracker returns a tracker for the named observers.
func NewObserverTracker(names []string) *ObserverTracker {
	t := &ObserverTracker{
		names:  append([]string(nil), names...),
		counts: make([]int64, len(names)),
		series: make([]*stats.Series, len(names)),
	}
	for i, n := range names {
		t.series[i] = stats.NewSeries(n + " cumulative repairs")
	}
	return t
}

// RecordRepair notes one repair by observer idx at the given round.
func (t *ObserverTracker) RecordRepair(round int64, idx int) {
	t.counts[idx]++
	t.series[idx].Append(float64(round)/float64(churn.Day), float64(t.counts[idx]))
}

// Count returns observer idx's total repairs.
func (t *ObserverTracker) Count(idx int) int64 { return t.counts[idx] }

// Series returns observer idx's cumulative repair series (x in days).
func (t *ObserverTracker) Series(idx int) *stats.Series { return t.series[idx] }

// Names returns the observer names.
func (t *ObserverTracker) Names() []string { return append([]string(nil), t.names...) }

// Len returns the number of observers.
func (t *ObserverTracker) Len() int { return len(t.names) }
