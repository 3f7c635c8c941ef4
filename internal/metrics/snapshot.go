package metrics

import (
	"encoding/json"
	"fmt"

	"p2pbackup/internal/stats"
)

// This file makes a finished run's measurements serializable: the
// campaign supervisor ships them from worker process to parent over a
// JSON pipe and persists them in the checkpoint journal. Two properties
// matter:
//
//   - Completeness: every field a TSV writer or campaign summary can
//     observe round-trips, including transients (lossAccum, todayLosses)
//     so a decoded collector behaves identically to the original even if
//     someone kept recording into it.
//   - Bit-exactness: encoding/json renders float64 with the shortest
//     exact representation, and Durations rebuilds its streaming moments
//     by replaying the raw samples in recorded order, so a decoded
//     collector reports byte-identical rates, quantiles and series.

// durationsJSON is the wire form of a Durations distribution. Only the
// raw samples travel; the streaming moments are reconstructed by
// replaying them, which reproduces Welford's recurrence bit for bit.
type durationsJSON struct {
	Samples []float64 `json:"samples"`
}

// MarshalJSON encodes the distribution as its ordered raw samples.
func (d Durations) MarshalJSON() ([]byte, error) {
	return json.Marshal(durationsJSON{Samples: d.samples})
}

// UnmarshalJSON rebuilds the distribution by replaying the samples in
// order, replacing the receiver's contents.
func (d *Durations) UnmarshalJSON(data []byte) error {
	var w durationsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*d = Durations{}
	for _, v := range w.Samples {
		d.Record(v)
	}
	return nil
}

// collectorJSON mirrors Collector field for field.
type collectorJSON struct {
	Cats         [NumCategories]Counts        `json:"cats"`
	LossSeries   [NumCategories]*stats.Series `json:"loss_series"`
	LossAccum    [NumCategories]float64       `json:"loss_accum"`
	TodayLosses  [NumCategories]int64         `json:"today_losses"`
	Shocks       int64                        `json:"shocks"`
	ShockLosses  int64                        `json:"shock_losses"`
	LastShock    int64                        `json:"last_shock"`
	TTB          Durations                    `json:"ttb"`
	TTR          Durations                    `json:"ttr"`
	RestoresFail int64                        `json:"restores_failed"`
	RedunGrows   int64                        `json:"redun_grows"`
	RedunShrinks int64                        `json:"redun_shrinks"`
	ParityAdd    int64                        `json:"parity_added"`
	ParityDrop   int64                        `json:"parity_dropped"`
	RedunSeries  *stats.Series                `json:"redun_series"`
	SampleEvery  int64                        `json:"sample_every"`
	Warmup       int64                        `json:"warmup"`
}

// MarshalJSON encodes the collector's complete state.
func (c *Collector) MarshalJSON() ([]byte, error) {
	return json.Marshal(collectorJSON{
		Cats:         c.cats,
		LossSeries:   c.lossSeries,
		LossAccum:    c.lossAccum,
		TodayLosses:  c.todayLosses,
		Shocks:       c.shocks,
		ShockLosses:  c.shockLosses,
		LastShock:    c.lastShock,
		TTB:          c.ttb,
		TTR:          c.ttr,
		RestoresFail: c.restoresFailed,
		RedunGrows:   c.redunGrows,
		RedunShrinks: c.redunShrinks,
		ParityAdd:    c.parityAdded,
		ParityDrop:   c.parityDropped,
		RedunSeries:  c.redunSeries,
		SampleEvery:  c.sampleEvery,
		Warmup:       c.warmup,
	})
}

// UnmarshalJSON restores a collector encoded by MarshalJSON. Absent
// series decode to empty named series so the accessors stay safe on
// hand-written or truncated inputs; loss series of unequal lengths,
// which EndRound never leaves, are an error.
func (c *Collector) UnmarshalJSON(data []byte) error {
	var w collectorJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	c.cats = w.Cats
	c.lossSeries = w.LossSeries
	c.lossAccum = w.LossAccum
	c.todayLosses = w.TodayLosses
	c.shocks = w.Shocks
	c.shockLosses = w.ShockLosses
	c.lastShock = w.LastShock
	c.ttb = w.TTB
	c.ttr = w.TTR
	c.restoresFailed = w.RestoresFail
	c.redunGrows = w.RedunGrows
	c.redunShrinks = w.RedunShrinks
	c.parityAdded = w.ParityAdd
	c.parityDropped = w.ParityDrop
	c.redunSeries = w.RedunSeries
	c.sampleEvery = w.SampleEvery
	c.warmup = w.Warmup
	for i := range c.lossSeries {
		if c.lossSeries[i] == nil {
			c.lossSeries[i] = stats.NewSeries(Category(i).String() + " cumulative losses/peer")
		}
		if n, n0 := c.lossSeries[i].Len(), c.lossSeries[0].Len(); n != n0 {
			return fmt.Errorf("metrics: loss series of %d and %d points", n0, n)
		}
	}
	if c.redunSeries == nil {
		c.redunSeries = stats.NewSeries("mean redundancy blocks/archive")
	}
	return nil
}

// observerTrackerJSON mirrors ObserverTracker field for field.
type observerTrackerJSON struct {
	Names  []string        `json:"names"`
	Counts []int64         `json:"counts"`
	Series []*stats.Series `json:"series"`
}

// MarshalJSON encodes the tracker's complete state.
func (t *ObserverTracker) MarshalJSON() ([]byte, error) {
	return json.Marshal(observerTrackerJSON{Names: t.names, Counts: t.counts, Series: t.series})
}

// UnmarshalJSON restores a tracker encoded by MarshalJSON. Absent
// counts and series decode to zeros and empty series; present ones must
// hold one entry per name.
func (t *ObserverTracker) UnmarshalJSON(data []byte) error {
	var w observerTrackerJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Counts == nil {
		w.Counts = make([]int64, len(w.Names))
	}
	if w.Series == nil {
		w.Series = make([]*stats.Series, len(w.Names))
	}
	if len(w.Counts) != len(w.Names) || len(w.Series) != len(w.Names) {
		return fmt.Errorf("metrics: %d observers with %d counts and %d series", len(w.Names), len(w.Counts), len(w.Series))
	}
	for i := range w.Series {
		if w.Series[i] == nil {
			w.Series[i] = stats.NewSeries(w.Names[i] + " cumulative repairs")
		}
	}
	t.names, t.counts, t.series = w.Names, w.Counts, w.Series
	return nil
}
