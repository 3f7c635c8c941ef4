package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2pbackup/internal/churn"
)

// Every literal in this file was recorded at the commit before the
// campaign table existed (5e442ad), from the two hand-written switches
// it replaced. Never regenerate one: a value that moves is a journal
// that no longer resumes, or a TSV whose bytes changed.

// microTraceFile writes recordMicroTrace's churn where -trace can read it.
func microTraceFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := churn.WriteTraceFile(path, recordMicroTrace(t)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSpecFingerprintsPinned: the spec RunCtx runs each kind under at
// the CLI's default options hashes as it did at the parent — a journal
// written by the parent binary must still -resume.
func TestSpecFingerprintsPinned(t *testing.T) {
	opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 1}}
	want := map[string]string{
		"threshold":         "4778f0a2e4e18e51",
		"focal":             "29b8d3717e407b7d",
		"strategy":          "a8669b9ea0d0e0c2",
		"availability":      "44668a11f0579aac",
		"repair-delay":      "c3b97ad17e41d39a",
		"horizon":           "d9fbcb13925e8ba7",
		"diurnal":           "18fd5839b9be7c05",
		"blackout":          "470a30934b93688e",
		"replay":            "07a0913c3b1f3ab7",
		"estimator":         "cc22babd324bd598",
		"transfer-baseline": "0ddb2ca09e245260",
		"flashcrowd":        "8b41686eb89cab00",
		"uplink-sweep":      "f09a943e02fc44c8",
		"fixed-vs-adaptive": "7fbde8d3b61deee2",
	}
	// The two recording campaigns hand supervised workers a temp file
	// whose name, prefix included, is part of the fingerprint.
	wantRecorded := map[string]string{
		"estimator":         "047b2843f85c7f9e",
		"fixed-vs-adaptive": "3a83087ab71359cd",
	}
	kinds := 0
	for i := range campaigns {
		c := &campaigns[i]
		if c.kind == "" {
			continue
		}
		kinds++
		spec := c.spec(opts)
		if got := spec.Fingerprint(); got != want[c.kind] {
			t.Errorf("kind %q: fingerprint %s, parent %s", c.kind, got, want[c.kind])
		}
		if c.record != nil {
			spec.TracePath = "/tmp/" + c.record.prefix + "-0123456789abcdef.jsonl"
			if got := spec.Fingerprint(); got != wantRecorded[c.kind] {
				t.Errorf("kind %q with a materialised trace: fingerprint %s, parent %s", c.kind, got, wantRecorded[c.kind])
			}
		}
	}
	if kinds != len(want) {
		t.Errorf("the table holds %d kinds, %d are pinned", kinds, len(want))
	}

	// Every shared field set: pins the Options -> spec projection and the
	// JSON field names and order.
	full := campaignByKind("threshold").spec(Options{Knobs: Knobs{Scale: ScaleDefault, Seed: 7, StrategySpec: "estimator:pareto",
		Bandwidth: "dsl", Redundancy: "adaptive:min=140", Shards: 4, PhaseTimes: true, TracePath: "/t/trace.csv"},
		Parallelism: 3, OutDir: "/out", Supervisor: &Supervisor{}})
	full.Thresholds = []int{132, 148}
	full.Delays = []int{1, 2}
	full.Horizons = []int64{720}
	full.Amplitudes = []float64{0.25}
	full.Overrides = &ConfigOverrides{NumPeers: 1, Rounds: 2, TotalBlocks: 3, DataBlocks: 4, RepairThreshold: 5,
		Quota: 6, PoolSamplePerRound: 7, AcceptHorizon: 8, Warmup: 9}
	if got, parent := full.Fingerprint(), "4b795822400229e6"; got != parent {
		t.Errorf("fully populated spec: fingerprint %s, parent %s", got, parent)
	}
}

// TestRegistryOutputsPinned runs every experiment id through the
// registry's driver — in-process and, under the first id of each table
// entry, through the Supervisor with this test binary as worker — on a
// shrunk population, and holds every file
// it writes, and the summary text it returns, to the sha256 the
// parent's RunCtx produced. Most ids
// run at the micro shape (microSpec's overrides); the two figure
// campaigns sweep thresholds 132-180 and pin 148, so they keep the
// paper's 256-block code on 300 peers for 1000 rounds.
func TestRegistryOutputsPinned(t *testing.T) {
	micro := microSpec().Overrides
	paperShape := &ConfigOverrides{NumPeers: 300, Rounds: 1000}
	tracePath := microTraceFile(t)
	figs12 := map[string]string{
		"fig1_repairs_by_threshold.tsv": "b991e9a4b3f2b478ae072ed9bc894529c35a1901be4a49428217c00e9359683d",
		"fig2_losses_by_threshold.tsv":  "bd28318abb85a9afef8da86fa9bc495d362b88660fca0486666a36f783f5cccd",
	}
	figs34 := map[string]string{
		"fig3_observer_repairs.tsv":  "41ff3736c53b147186b2f5a1ef1be261f18ba2d6ae2c06678d896795649d8f4f",
		"fig4_cumulative_losses.tsv": "9f96a39aee4b6d33d0d99cdbed0db65b3432d1a7be84dd15fd92fef62a104243",
	}
	want := map[string]map[string]string{
		"fig1":                  figs12,
		"fig2":                  figs12,
		"fig3":                  figs34,
		"fig4":                  figs34,
		"costmodel":             {"table_repair_cost.tsv": "0448d586b1d109527cf6eaac4d398a02edd25941a9f0eff475f348b6a9278a99"},
		"ablation-strategy":     {"ablation_strategy.tsv": "6941f4596dd453afdfd9304491a032e05733f00ca2fa1101de067869ec9f39e5"},
		"ablation-availability": {"ablation_availability.tsv": "8d81cc61639e98959dd5c5068baa1f261c0e05d53e22f75256c9564ad98470bb"},
		"ablation-horizon":      {"ablation_horizon.tsv": "f9e6f672189c01102e6fc1042cd4791706b4274920e932881ebe33069cff33bc"},
		"ablation-delay":        {"ablation_delay.tsv": "7f32cc98b5ac82d4d83ee73566aa6ad3f0c08457d4e0445a055a6317f13c29f9"},
		"ablation-estimator":    {"ablation_estimator.tsv": "9f5a5109879a25397898f01ba54cef5e3c108b03ccfbf7b742ca4f6940ee38a3"},
		"diurnal":               {"scenario_diurnal.tsv": "9821f37433f3c60cb91edda12dee81434d6ea5b4837952dd3a2066be491103f9"},
		"blackout":              {"scenario_blackout.tsv": "5b0c533f5fcc56873fbd6e1f38f3f328ab45cc272d14e9128a067b31fe707047"},
		"replay":                {"scenario_replay.tsv": "e0e384506d7c317185ad679e2984acf92a69fa437fe12f04b7a96a2c1f354707"},
		"transfer-baseline":     {"scenario_transfer_baseline.tsv": "14264158b2cce62e5a063225f1e3c2860bbf6b58184d773d4a499a6418fb543d"},
		"flashcrowd":            {"scenario_flashcrowd.tsv": "8da55fcb35da8f0cecd67cbde816f0c661557dd7e3a4433f5bdbf4dae08b4c0b"},
		"uplink-sweep":          {"scenario_uplink_sweep.tsv": "9d759d325d0ba69f5802fe1c3feb524c02beaab565a88de5d7adceb541d5e42c"},
		"fixed-vs-adaptive":     {"scenario_redundancy.tsv": "ca14b64e6a9549e85d060e0f51c647659c375303b34b2ce6a011ec1a2607a961"},
	}
	// Summary.Text is what p2psim prints under "== name ==": the same
	// bytes in both modes, recorded at the parent of the commit that
	// declared the campaign table's columns (e800f50).
	figs12Text := "2cd90b6c0e011910aa3f9f53fa8060a53f4409d8372df2b4225e81e7adfce22a"
	figs34Text := "44dd2ef1eaebfec024fd6f221a54077d91f870fa25e0ab1f380f04eaca1baed3"
	texts := map[string]string{
		"fig1":                  figs12Text,
		"fig2":                  figs12Text,
		"fig3":                  figs34Text,
		"fig4":                  figs34Text,
		"costmodel":             "8a59422d33e82eceffa12a5394b907b2f6f2e2294b078f081eb188382cde5da5",
		"ablation-strategy":     "01d7c34437ac731845adca39db2d2fd82d99f591d1b0e7087d9767e66c9679f0",
		"ablation-availability": "f168f5ea774367ffbe72556161b597a25fe7e19d8fe4b8bc839f46c06a5267da",
		"ablation-horizon":      "b1eee7bc801cf716d19062acd82f7a4d3f72524f6bbdb05f14e2402c84b9b6c7",
		"ablation-delay":        "3b2b4e2be73ca13ebc1b399ac28a6ea33b323ced162f81b0439192d4872c9f7a",
		"ablation-estimator":    "1854724278b5c17e5bbdafa16ee7beb4a019287c050b3aaa26e88a9d1ea70c66",
		"diurnal":               "b4735c9c4a57603f902bb491ffd4530795c1ea1843744c1ec675dd213edcfeb3",
		"blackout":              "17d1064a0f42d1df5205470a28f8b2358867bf70bcd86329f14c5006bc6df5f2",
		"replay":                "487a7d6bcbfd2d93338340c323b957730682db7c759780313202cc8627ffc8a5",
		"transfer-baseline":     "f6b2b8cf6e5f9b1fc9319921a05cf20e4e2a428657f0e46b019b1a777eee80be",
		"flashcrowd":            "45e53199a850ef2f3e09df2fe5ea1d490e51e4f88a285169f8131b1186b5beb1",
		"uplink-sweep":          "dec9f55f6ddd7bb16ae5046ca3937787d32e1c38d5fe6d9571353d5ecd92fbdd",
		"fixed-vs-adaptive":     "adbfb022d7a86be5a5a1a94855446db27cb256a97e54e09cd6b37096378ece86",
	}
	for _, id := range Names() {
		if id == "all" {
			continue
		}
		files, pinned := want[id]
		if !pinned {
			t.Errorf("experiment %q has no pinned outputs", id)
			continue
		}
		ov := micro
		opts := Options{Knobs: Knobs{Scale: ScaleSmoke, Seed: 3}, Parallelism: 2}
		switch id {
		case "fig1", "fig2", "fig3", "fig4":
			ov = paperShape
		case "replay":
			opts.TracePath = tracePath
		case "fixed-vs-adaptive":
			opts.Redundancy = microAdaptiveSpec
		}
		modes := []string{"in-process", "supervised"}
		if campaignByID(id).ids[0] != id {
			modes = modes[:1] // the entry's first id has covered its supervised path
		}
		for _, mode := range modes {
			id, mode, opts := id, mode, opts
			t.Run(id+"/"+mode, func(t *testing.T) {
				t.Parallel()
				opts.OutDir = t.TempDir()
				if mode == "supervised" {
					opts.Supervisor = testSupervisor()
				}
				sums, err := runShrunk(id, opts, func(s *CampaignSpec) { s.Overrides = ov })
				if err != nil {
					t.Fatal(err)
				}
				if len(sums) != 1 || len(sums[0].Files) != len(files) {
					t.Fatalf("summaries = %+v, want one with %d files", sums, len(files))
				}
				for _, f := range sums[0].Files {
					raw, err := os.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(raw)
					if got, parent := hex.EncodeToString(sum[:]), files[filepath.Base(f)]; got != parent {
						t.Errorf("%s: sha256 %s, parent %s\n%s", filepath.Base(f), got, parent, raw)
					}
				}
				sum := sha256.Sum256([]byte(sums[0].Text))
				if got, parent := hex.EncodeToString(sum[:]), texts[id]; got != parent {
					t.Errorf("summary text: sha256 %s, parent %s\n%s", got, parent, sums[0].Text)
				}
			})
		}
	}
}

// TestCampaignTableConsistent: every id in Names() resolves; ids, kinds
// and file names are unique; every table sets exactly one of columns and
// emit, under non-empty headers unique within it; every kind builds
// valid variants (and refuses to without the trace it replays); every
// entry writes one file per table; "all" covers exactly the ids that
// need no external trace.
func TestCampaignTableConsistent(t *testing.T) {
	tracePath := microTraceFile(t)
	seen := map[string]bool{}
	unique := func(what, name string) {
		if seen[what+" "+name] {
			t.Errorf("%s %q declared twice", what, name)
		}
		seen[what+" "+name] = true
	}
	for _, id := range Names() {
		if unique("id", id); id != "all" && campaignByID(id) == nil {
			t.Errorf("id %q in Names() does not resolve", id)
		}
	}
	all := " " + strings.Join(allIDs(), " ") + " "
	if parent := " costmodel fig1 fig3 ablation-strategy ablation-availability ablation-horizon ablation-delay " +
		"ablation-estimator diurnal blackout transfer-baseline flashcrowd uplink-sweep fixed-vs-adaptive "; all != parent {
		t.Errorf("\"all\" runs\n%s\nthe parent ran\n%s", all, parent)
	}
	// writesEveryTable runs the entry under spec and requires a file per
	// table, in table order.
	writesEveryTable := func(c *campaign, spec CampaignSpec) {
		t.Helper()
		sums, err := c.run(context.Background(), Options{Parallelism: 2, OutDir: t.TempDir()}, spec)
		if err != nil {
			t.Errorf("%v: %v", c.ids, err)
			return
		}
		if len(sums) != 1 || len(sums[0].Files) != len(c.tables) {
			t.Errorf("%v wrote %+v, want one summary with %d files", c.ids, sums, len(c.tables))
			return
		}
		for i, f := range sums[0].Files {
			if filepath.Base(f) != c.tables[i].file {
				t.Errorf("%v: file %d is %s, its table says %s", c.ids, i, filepath.Base(f), c.tables[i].file)
			}
		}
	}
	for i := range campaigns {
		c := &campaigns[i]
		if (c.kind == "") != (c.build == nil) || len(c.tables) == 0 || c.text == nil || (c.record != nil && !c.trace) {
			t.Fatalf("malformed entry %v", c.ids)
		}
		for _, tb := range c.tables {
			unique("file", tb.file)
			if (len(tb.columns) == 0) == (tb.emit == nil) {
				t.Errorf("%s: %d columns and emit set = %v, want exactly one of them", tb.file, len(tb.columns), tb.emit != nil)
			}
			headers := map[string]bool{}
			for _, col := range tb.columns {
				if col.header == "" || headers[col.header] {
					t.Errorf("%s: empty or repeated header %q", tb.file, col.header)
				}
				headers[col.header] = true
			}
		}
		if (c.trace && c.record == nil) == strings.Contains(all, " "+c.ids[0]+" ") {
			t.Errorf("\"all\" must run %v exactly when it needs no external trace", c.ids)
		}
		if c.kind == "" {
			writesEveryTable(c, c.spec(Options{}))
			continue
		}
		if unique("kind", c.kind); campaignByKind(c.kind) != c {
			t.Errorf("kind %q does not resolve to its entry", c.kind)
		}
		spec := microSpec()
		spec.Kind, spec.Delays = c.kind, nil
		if c.kind == "threshold" || c.kind == "focal" {
			spec.Overrides = &ConfigOverrides{Rounds: 10} // thresholds 132-180 need the paper's code
		}
		if c.trace {
			if _, err := spec.Build(); err == nil || !strings.Contains(err.Error(), "needs a churn trace") {
				t.Errorf("kind %q built without its trace: %v", c.kind, err)
			}
			spec.TracePath = tracePath
		}
		camp, err := spec.Build()
		if err != nil || len(camp.Variants) == 0 {
			t.Errorf("kind %q builds %d variants: %v", c.kind, len(camp.Variants), err)
		}
		for v := range camp.Variants {
			cfg, pe := materialize(camp, v)
			if _, err := cfg.Validate(); err != nil || pe != nil {
				t.Errorf("kind %q variant %q: %v %v", c.kind, camp.Variants[v].Name, err, pe)
			}
		}
		spec.Overrides.Rounds = min(spec.Overrides.Rounds, 50)
		writesEveryTable(c, spec)
	}
	for _, kind := range []string{"", "nope"} { // "" is costmodel's: no campaign behind it
		if _, err := (CampaignSpec{Kind: kind}).Build(); err == nil {
			t.Errorf("kind %q built", kind)
		}
	}
}
