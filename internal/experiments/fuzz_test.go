package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"p2pbackup/internal/churn"
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
			tg.cfgs = append(tg.cfgs, materializeVariant(camp, i))
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
// readRequest, then the variant's config and its validation. sim.New is
// never called. The spec's TracePath is cleared first, so the fuzzer
// cannot make the worker read arbitrary files (FuzzReadCSV and
// FuzzReadJSONL cover the trace parsers). Nothing may panic, a variant
// the campaign does not have is refused, and a config that validates
// has an AvailSpec that parses.
func FuzzWorkerRequest(f *testing.F) {
	focal := microSpec()
	focal.Kind, focal.Delays = "focal", nil
	for _, spec := range []CampaignSpec{microSpec(), focal} {
		for _, v := range []int{0, 3, 4, -1} {
			raw, err := json.Marshal(workerRequest{Spec: spec, Variant: v, Attempt: 1})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
		}
	}
	// An amplitude outside [0,1] used to validate (TestConfigValidatesAvailabilityModel).
	f.Add([]byte(`{"spec":{"kind":"diurnal","amplitudes":[5]},"variant":0}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req workerRequest
		if json.Unmarshal(raw, &req) != nil {
			return // the worker's decoder refuses it too, or reads past it
		}
		req.Spec.TracePath = ""
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, camp, err := readRequest(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if got.Variant < 0 || got.Variant >= len(camp.Variants) {
			t.Fatalf("variant %d of %d accepted", got.Variant, len(camp.Variants))
		}
		cfg := materializeVariant(camp, got.Variant)
		if _, err := cfg.Validate(); err == nil {
			if _, err := churn.ParseAvailability(cfg.AvailSpec); err != nil {
				t.Fatalf("config validates with an AvailSpec that does not parse: %v", err)
			}
		}
	})
}
