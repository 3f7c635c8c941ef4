package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"p2pbackup/internal/sim"
)

// FuzzJournalLine feeds arbitrary bytes to both readers of encoded
// results: the checkpoint journal's line decoder and the worker's
// stdout protocol. A result the supervisor would serve as a variant's
// row must render every table and the summary of the variant's
// campaign without panicking. Two campaigns stand in for all: the
// repair-delay micro campaign the journal fixtures come from, and the
// focal run, whose reports also read observers.
func FuzzJournalLine(f *testing.F) {
	raw, err := os.ReadFile("testdata/journal_parent.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f.Add(line)
	f.Add([]byte(`{"v":1,"campaign":"repair-delay","fingerprint":"8feb09a866968a61","variant":0,"name":"delay=0h","status":"ok","attempts":1,"result":{"collector":null}}`))
	five := `"observers":{"names":["a","b","c","d","e"]}`
	f.Add([]byte(`{"type":"result","result":{"collector":{},` + five + `}}`))
	f.Add([]byte(`{"type":"result","result":{` + five + `,"collector":{"loss_series":[{"x":[1],"y":[]},{"x":[1],"y":[]},{"x":[1],"y":[]},{"x":[1],"y":[]}]}}}`))
	f.Add([]byte(`{"type":"result","result":{` + five + `,"collector":{"loss_series":[{"x":[1],"y":[0]}]}}}`))
	f.Add([]byte(`{"type":"heartbeat","round":12}`))

	focal := microSpec()
	focal.Kind, focal.Delays = "focal", nil
	type target struct {
		c    *campaign
		camp Campaign
		cfgs []sim.Config
	}
	var targets []target
	for _, spec := range []CampaignSpec{microSpec(), focal} {
		camp, err := spec.Build()
		if err != nil {
			f.Fatal(err)
		}
		tg := target{c: campaignByKind(spec.Kind), camp: camp}
		for i := range camp.Variants {
			cfg, _ := materialize(camp, i)
			tg.cfgs = append(tg.cfgs, cfg)
		}
		targets = append(targets, tg)
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		var results []*sim.Result
		var e journalEntry // as readJournal decodes a line
		if json.Unmarshal(line, &e) == nil && e.V == 1 && e.Status == "ok" {
			results = append(results, e.Result)
		}
		var m workerMessage
		if json.Unmarshal(line, &m) == nil && m.Type == "result" {
			results = append(results, m.Result)
		}
		for _, res := range results {
			for _, tg := range targets {
				var rows []Row
				for i, cfg := range tg.cfgs {
					if check(res, cfg) == nil {
						row := *res
						row.Config = cfg
						rows = append(rows, Row{Index: i, Name: tg.camp.Variants[i].Name, Config: cfg, Result: &row})
					}
				}
				if len(rows) == 0 {
					continue
				}
				if tg.c.order != nil {
					slices.SortStableFunc(rows, tg.c.order)
				}
				_, _ = tg.c.text(rows)
				for _, tb := range tg.c.tables {
					var b bytes.Buffer
					_ = tb.write(&b, rows)
				}
			}
		}
	})
}

// FuzzWorkerRequest feeds arbitrary bytes to a worker as its request,
// through everything the worker does before it runs a simulation:
// readRequest's decoding and validation; sim.New is never called. The
// trace path is cleared first, so the fuzzer cannot make the worker read
// arbitrary files (FuzzReadCSV and FuzzReadJSONL cover the trace
// parsers). Nothing may panic, and an accepted request's config passes
// Validate. The seeds are the micro-scale config of every variant of
// every kind in the campaign table, the trace kinds over the micro
// trace, and a diurnal amplitude outside [0,1], which used to validate
// (TestConfigValidatesAvailabilityModel).
func FuzzWorkerRequest(f *testing.F) {
	trace := recordMicroTrace(f)
	add := func(cfg sim.Config, variant int) {
		raw, err := json.Marshal(workerRequest{Config: cfg, Variant: variant, Attempt: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for i := range campaigns {
		c := &campaigns[i]
		if c.kind == "" {
			continue
		}
		spec := microSpec()
		spec.Kind, spec.Delays = c.kind, nil
		if c.kind == "threshold" || c.kind == "focal" {
			spec.Overrides = &ConfigOverrides{Rounds: 10} // thresholds 132-180 need the paper's code
		}
		camp, err := spec.build(c, trace)
		if err != nil {
			f.Fatal(err)
		}
		for v := range camp.Variants {
			cfg, pe := materialize(camp, v)
			if pe != nil {
				f.Fatal(pe)
			}
			add(cfg, v)
		}
	}
	diurnal := microConfig()
	diurnal.AvailSpec = "diurnal:5"
	add(diurnal, 0)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req workerRequest
		if json.Unmarshal(raw, &req) != nil {
			return // the worker's decoder refuses it too, or reads past it
		}
		req.TracePath = ""
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readRequest(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if _, err := got.Config.Validate(); err != nil {
			t.Fatalf("request accepted with a config Validate refuses: %v", err)
		}
	})
}
