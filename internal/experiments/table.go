package experiments

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"p2pbackup/internal/churn"
	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/sim"
)

// campaign is one row of the campaign table: everything the registry
// (RunCtx, Names), CampaignSpec.Build and the reports know about one
// built-in campaign, stated once. Adding a campaign is one entry here
// plus its constructor.
type campaign struct {
	// ids are the experiment ids; figures drawn from the same runs share
	// one entry.
	ids []string
	// kind is the CampaignSpec.Kind, hashed into journal fingerprints: it
	// never changes. Empty (with no build): a table without simulations.
	kind string
	// sweep holds the default sweep lists, taken where a spec leaves its
	// own empty; no other field of it is read.
	sweep CampaignSpec
	// trace: build replays a churn trace, which the spec names (-trace).
	// With a record the spec need not: the registry records one.
	trace  bool
	record *traceRecording
	build  func(cfg sim.Config, s *CampaignSpec, trace *churn.Trace) (Campaign, error)
	// rowMsg formats a finished row's Event.Message; nil picks
	// doneMessage under the campaign's name.
	rowMsg func(Row) string
	// order, when set, sorts the rows before they are reported; they
	// come in variant order otherwise.
	order func(a, b Row) int
	// name is the summary's name; empty takes the built campaign's.
	name string
	// tables are the data files the campaign writes, and text the
	// summary p2psim prints under its name. Both read the campaign's
	// rows (none without a build).
	tables []table
	text   func(rows []Row) (string, error)
}

// table is one data file: its name, a comment line, and either the
// columns of a line per row or, for a file that is not a line per
// variant, an emit func that writes everything after the comment.
type table struct {
	file, comment string
	columns       []column
	emit          func(b *bytes.Buffer, rows []Row) error
}

// column is one TSV column: its header, the fmt verb that prints it and
// the value it reads from a row.
type column struct {
	header, verb string
	value        func(Row) any
}

// write renders the table: "# comment" (when there is one), then "#"
// and the tab-joined headers and a line per row, or what emit writes.
func (tb *table) write(b *bytes.Buffer, rows []Row) error {
	if tb.comment != "" {
		fmt.Fprintf(b, "# %s\n", tb.comment)
	}
	if tb.emit != nil {
		return tb.emit(b, rows)
	}
	sep := "#"
	for _, col := range tb.columns {
		b.WriteString(sep + col.header)
		sep = "\t"
	}
	for _, row := range rows { // a line opens with the newline ending the one before
		sep = "\n"
		for _, col := range tb.columns {
			fmt.Fprintf(b, sep+col.verb, col.value(row))
			sep = "\t"
		}
	}
	b.WriteByte('\n')
	return nil
}

// traceRecording derives the recording run from the base seed
// (seed*mult + add: churn depends on neither strategy nor redundancy
// policy, so the experiment stays a function of scale and seed) and
// names the temp file supervised workers read: it is in the fingerprint.
type traceRecording struct {
	mult, add uint64
	prefix    string
}

// fixed adapts a constructor that takes nothing but the base config.
func fixed(build func(sim.Config) Campaign) func(sim.Config, *CampaignSpec, *churn.Trace) (Campaign, error) {
	return func(cfg sim.Config, _ *CampaignSpec, _ *churn.Trace) (Campaign, error) { return build(cfg), nil }
}

// plain is the shape most campaigns share: one id, a constructor that
// takes nothing but the base config.
func plain(id, kind string, build func(sim.Config) Campaign, tables []table, text func([]Row) (string, error)) campaign {
	return campaign{ids: []string{id}, kind: kind, build: fixed(build), tables: tables, text: text}
}

// campaigns is the campaign table, in Names() and "all" order.
var campaigns = []campaign{
	{
		ids:    []string{"costmodel"},
		name:   "costmodel",
		tables: []table{{file: "table_repair_cost.tsv", emit: writeCostModel}},
		text:   costModelText,
	},
	{
		ids:  []string{"fig1", "fig2"},
		kind: "threshold",
		// No default sweep: an empty Thresholds means the paper's and stays
		// empty in the spec, as the fingerprints of journals on disk have it.
		build: func(cfg sim.Config, s *CampaignSpec, _ *churn.Trace) (Campaign, error) {
			return ThresholdCampaign(cfg, orDefault(s.Thresholds, paperThresholds()))
		},
		rowMsg: thresholdDoneMessage,
		order:  byThreshold,
		name:   "fig1+fig2",
		tables: []table{
			thresholdTable("fig1_repairs_by_threshold.tsv", "repairs_per_1000_peer_rounds", repairRate),
			thresholdTable("fig2_losses_by_threshold.tsv", "losses_per_1000_peer_rounds", lossRate),
		},
		text: thresholdText,
	},
	{
		ids:   []string{"fig3", "fig4"},
		kind:  "focal",
		build: fixed(FocalCampaign),
		name:  "fig3+fig4",
		tables: []table{
			{file: "fig3_observer_repairs.tsv", comment: "cumulative repairs per observer", emit: writeObserverSeries},
			{file: "fig4_cumulative_losses.tsv", comment: "cumulative lost archives per peer", emit: writeLossSeries},
		},
		text: focalText,
	},
	plain("ablation-strategy", "strategy", StrategyCampaign, ablationTable("ablation_strategy.tsv", "strategy"), ablationText),
	plain("ablation-availability", "availability", availabilityCampaign,
		ablationTable("ablation_availability.tsv", "availability-model"), ablationText),
	{
		ids:   []string{"ablation-horizon"},
		kind:  "horizon",
		sweep: CampaignSpec{Horizons: []int64{30 * churn.Day, 90 * churn.Day, 180 * churn.Day}},
		build: func(cfg sim.Config, s *CampaignSpec, _ *churn.Trace) (Campaign, error) {
			return horizonCampaign(cfg, s.Horizons), nil
		},
		tables: ablationTable("ablation_horizon.tsv", "horizon"),
		text:   ablationText,
	},
	{
		ids:   []string{"ablation-delay"},
		kind:  "repair-delay",
		sweep: CampaignSpec{Delays: []int{0, 6, 24, 72}},
		build: func(cfg sim.Config, s *CampaignSpec, _ *churn.Trace) (Campaign, error) {
			return repairDelayCampaign(cfg, s.Delays), nil
		},
		tables: ablationTable("ablation_delay.tsv", "repair-delay"),
		text:   ablationText,
	},
	{
		ids:    []string{"ablation-estimator"},
		kind:   "estimator",
		trace:  true,
		record: &traceRecording{mult: 7349981, add: 17, prefix: "p2psim-estimator"},
		build: func(cfg sim.Config, _ *CampaignSpec, trace *churn.Trace) (Campaign, error) {
			return estimatorCampaign(cfg, trace), nil
		},
		tables: ablationTable("ablation_estimator.tsv", "estimator"),
		text:   ablationText,
	},
	{
		ids:   []string{"diurnal"},
		kind:  "diurnal",
		sweep: CampaignSpec{Amplitudes: []float64{0, 0.3, 0.6, 0.9}},
		build: func(cfg sim.Config, s *CampaignSpec, _ *churn.Trace) (Campaign, error) {
			return DiurnalCampaign(cfg, s.Amplitudes), nil
		},
		tables: ablationTable("scenario_diurnal.tsv", "diurnal"),
		text:   ablationText,
	},
	plain("blackout", "blackout", BlackoutCampaign, ablationTable("scenario_blackout.tsv", "blackout"), ablationText),
	{
		ids:   []string{"replay"},
		kind:  "replay",
		trace: true,
		build: func(cfg sim.Config, _ *CampaignSpec, trace *churn.Trace) (Campaign, error) {
			return ReplayCampaign(cfg, trace), nil
		},
		tables: ablationTable("scenario_replay.tsv", "replay"),
		text:   ablationText,
	},
	plain("transfer-baseline", "transfer-baseline", transferBaselineCampaign,
		transferTable("scenario_transfer_baseline.tsv", "transfer-baseline"), transferText),
	plain("flashcrowd", "flashcrowd", flashCrowdCampaign, transferTable("scenario_flashcrowd.tsv", "flashcrowd"), transferText),
	plain("uplink-sweep", "uplink-sweep", uplinkSweepCampaign, transferTable("scenario_uplink_sweep.tsv", "uplink-sweep"), transferText),
	{
		ids:    []string{"fixed-vs-adaptive"},
		kind:   "fixed-vs-adaptive",
		trace:  true,
		record: &traceRecording{mult: 15485863, add: 101, prefix: "p2psim-redundancy"},
		build: func(cfg sim.Config, s *CampaignSpec, trace *churn.Trace) (Campaign, error) {
			return redundancyCampaign(cfg, trace, redundancyAdaptiveSpec(s.Redundancy)), nil
		},
		tables: redundancyTable,
		text:   redundancyText,
	},
}

// campaignByID resolves an experiment id.
func campaignByID(id string) *campaign {
	for i := range campaigns {
		if slices.Contains(campaigns[i].ids, id) {
			return &campaigns[i]
		}
	}
	return nil
}

// campaignByKind resolves a CampaignSpec.Kind.
func campaignByKind(kind string) *campaign {
	for i := range campaigns {
		if kind != "" && campaigns[i].kind == kind {
			return &campaigns[i]
		}
	}
	return nil
}

// orDefault is have, or def when have is empty.
func orDefault[T any](have, def []T) []T {
	if len(have) == 0 {
		return def
	}
	return have
}

// fillSweep defaults every sweep list the spec leaves empty.
func (c *campaign) fillSweep(s *CampaignSpec) {
	s.Thresholds = orDefault(s.Thresholds, c.sweep.Thresholds)
	s.Delays = orDefault(s.Delays, c.sweep.Delays)
	s.Horizons = orDefault(s.Horizons, c.sweep.Horizons)
	s.Amplitudes = orDefault(s.Amplitudes, c.sweep.Amplitudes)
}

// spec is what RunCtx runs the campaign under: opts' knobs, default sweep.
func (c *campaign) spec(o Options) CampaignSpec {
	s := CampaignSpec{Kind: c.kind, Knobs: o.Knobs}
	c.fillSweep(&s)
	return s
}

// check fails where building the campaign under s would, before any
// run: a knob that does not parse, no trace for a campaign that replays
// one without recording it, or a trace file that does not open.
func (c *campaign) check(s CampaignSpec) error {
	if c.build == nil {
		return nil
	}
	if c.trace && c.record == nil && s.TracePath == "" {
		return c.needsTrace()
	}
	if c.trace && s.TracePath != "" {
		f, err := os.Open(s.TracePath)
		if err != nil {
			return err
		}
		f.Close()
	}
	_, err := s.baseConfig()
	return err
}

// needsTrace is the error for a trace campaign run without one.
func (c *campaign) needsTrace() error {
	return fmt.Errorf("experiments: %s needs a churn trace (-trace FILE; generate one with 'tracegen gen')", c.ids[0])
}

// maxRecordedTraceRounds caps an internally recorded trace: long enough
// for elders to exist, short enough to stay cheap at every scale.
const maxRecordedTraceRounds = 10000

// recordTrace runs the campaign's strategy-neutral recording simulation.
func (c *campaign) recordTrace(ctx context.Context, opts Options, spec CampaignSpec) (*churn.Trace, error) {
	cfg, err := spec.baseConfig()
	if err != nil {
		return nil, err
	}
	cfg.Seed = cfg.Seed*c.record.mult + c.record.add
	if cfg.Rounds > maxRecordedTraceRounds {
		cfg.Rounds = maxRecordedTraceRounds
	}
	cfg.RecordTrace = true
	if opts.Events != nil {
		opts.Events(Event{Kind: EventProgress, Campaign: c.kind, Variant: -1,
			Message: fmt.Sprintf("recording %d-round churn trace for the replay block", cfg.Rounds)})
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// run executes the campaign under spec, in-process or under
// opts.Supervisor, and reports it: data files under opts.OutDir, the
// summary back.
func (c *campaign) run(ctx context.Context, opts Options, spec CampaignSpec) ([]Summary, error) {
	var name string
	var rows []Row
	if c.build != nil {
		var trace *churn.Trace
		if c.record != nil && spec.TracePath == "" {
			var err error
			if trace, err = c.recordTrace(ctx, opts, spec); err != nil {
				return nil, err
			}
			if opts.Supervisor != nil {
				// Workers replay the recorded churn from a file the spec
				// names.
				path, cleanup, err := materializeTraceFile(trace, c.record.prefix)
				if err != nil {
					return nil, err
				}
				defer cleanup()
				spec.TracePath = path
			}
		}
		camp, err := spec.build(c, trace)
		if err != nil {
			return nil, err
		}
		// A one-run campaign reports progress by round heartbeats, the
		// others by the text of each finished row.
		sink := opts.Events
		if msg := c.rowMsg; sink != nil && !reportsRounds(camp) {
			if msg == nil {
				msg = doneMessage(camp.Name)
			}
			sink = func(ev Event) {
				if ev.Kind == EventRow {
					ev.Message = msg(*ev.Row)
				}
				opts.Events(ev)
			}
		}
		rows, err = collectRows(ctx, Runner{Parallelism: opts.Parallelism, Supervisor: opts.Supervisor}, camp, sink)
		if err != nil {
			return nil, err
		}
		name = camp.Name
	}
	if c.order != nil {
		slices.SortStableFunc(rows, c.order)
	}
	text, err := c.text(rows)
	if err != nil {
		return nil, err
	}
	var files []string
	for i := 0; opts.OutDir != "" && i < len(c.tables); i++ {
		path := filepath.Join(opts.OutDir, c.tables[i].file)
		if err := c.tables[i].writeFile(path, rows); err != nil {
			return nil, err
		}
		files = append(files, path)
	}
	return []Summary{{Name: cmp.Or(c.name, name), Files: files, Text: text}}, nil
}

// materializeTraceFile writes an internally recorded churn trace to a
// temp JSONL file so worker processes replay exactly the same churn
// the parent recorded (the JSONL round trip is lossless — see
// internal/churn's fuzz tests). The final name is derived from the
// trace content, not a random suffix: the path lands in the campaign
// spec, and the spec's fingerprint keys the checkpoint journal — a
// re-recorded (deterministic) trace must map to the same fingerprint
// or -resume would re-run every variant of trace-backed campaigns.
// The caller removes it after the campaign.
func materializeTraceFile(trace *churn.Trace, prefix string) (string, func(), error) {
	f, err := os.CreateTemp("", prefix+"-*.jsonl")
	if err != nil {
		return "", nil, err
	}
	tmp := f.Name()
	f.Close()
	if err := churn.WriteTraceFile(tmp, trace); err != nil {
		os.Remove(tmp)
		return "", nil, err
	}
	raw, err := os.ReadFile(tmp)
	if err != nil {
		os.Remove(tmp)
		return "", nil, err
	}
	sum := sha256.Sum256(raw)
	path := filepath.Join(os.TempDir(), fmt.Sprintf("%s-%s.jsonl", prefix, hex.EncodeToString(sum[:8])))
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", nil, err
	}
	return path, func() { os.Remove(path) }, nil
}

// writeFile writes the table to path, whole or not at all.
func (tb *table) writeFile(path string, rows []Row) error {
	var b bytes.Buffer
	if err := tb.write(&b, rows); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// writeCostModel emits the section 2.2.4 repair-cost table; it has no
// campaign behind it.
func writeCostModel(b *bytes.Buffer, _ []Row) error {
	rows, err := costmodel.PaperTable()
	if err != nil {
		return err
	}
	b.WriteString("#case\tdownload_s\tupload_s\ttotal_min\trepairs_per_day\n")
	for _, r := range rows {
		fmt.Fprintf(b, "%s\t%.0f\t%.0f\t%.1f\t%.1f\n",
			r.Label, r.Cost.Download.Seconds(), r.Cost.Upload.Seconds(), r.Cost.Total().Minutes(), r.RepairsPerDay)
	}
	return nil
}

// costModelText summarises the repair-cost table.
func costModelText([]Row) (string, error) {
	rows, err := costmodel.PaperTable()
	if err != nil {
		return "", err
	}
	text := ""
	for _, r := range rows {
		text += fmt.Sprintf("%-26s total %.1f min (%.0fs down + %.0fs up), max %.1f repairs/day\n",
			r.Label, r.Cost.Total().Minutes(), r.Cost.Download.Seconds(), r.Cost.Upload.Seconds(), r.RepairsPerDay)
	}
	return text, nil
}
