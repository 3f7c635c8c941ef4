package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"p2pbackup/internal/sim"
)

// The in-process workloads run in a child of the harness (`bench -child
// REQUEST`, result on standard output) so that wall, CPU and peak memory
// are one simulation's and nothing the harness holds.

// simRequest asks the child for one simulation run.
type simRequest struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Shards   int    `json:"shards"`
	// Engine names the engine generation ("v1", "v3"); empty runs the
	// default engine and touches no field.
	Engine string `json:"engine,omitempty"`
	// Phases turns Config.PhaseTimes on.
	Phases bool `json:"phases,omitempty"`
	// Traced drives the run round by round with spans, the counting
	// probe and memory statistics, then times the layer's primitives.
	Traced bool `json:"traced,omitempty"`
}

// simulated is what the model produced. None of it is gated except
// RepairsPer1000: the repository holds no reference results from the
// paper, so the model is reported as unvalidated.
type simulated struct {
	Digest          string  `json:"digest"`
	Peers           int     `json:"peers,omitempty"`
	Rounds          int64   `json:"rounds,omitempty"`
	Repairs         int64   `json:"repairs"`
	RepairsPer1000  float64 `json:"repairs_per_1000_peer_rounds"`
	Losses          int64   `json:"losses"`
	HardLosses      int64   `json:"hard_losses"`
	Grows           int64   `json:"grows"`
	Shrinks         int64   `json:"shrinks"`
	TTBN            int64   `json:"ttb_n"`
	TTBP50          float64 `json:"ttb_p50,omitempty"`
	TTBP95          float64 `json:"ttb_p95,omitempty"`
	TTRN            int64   `json:"ttr_n"`
	TTRP50          float64 `json:"ttr_p50,omitempty"`
	TTRP95          float64 `json:"ttr_p95,omitempty"`
	RestoresFailed  int64   `json:"restores_failed"`
	Deaths          int64   `json:"deaths"`
	Cancels         int64   `json:"cancels"`
	FinalPlacements int     `json:"final_placements"`
}

// simResult is the child's answer.
type simResult struct {
	Simulated simulated `json:"simulated"`
	// EngineSet is false when the requested engine could not be selected
	// (the field is gone): the run measured the only engine there is.
	EngineSet bool `json:"engine_set"`
	// OpS is the operation as the child times it, sim.New to the digest:
	// what a traced child's root span is compared with.
	OpS         float64            `json:"op_s"`
	Layer       map[string]float64 `json:"layer,omitempty"`
	LayerErrors []string           `json:"layer_errors,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

// setStringField sets the exported string field name of the struct p
// points to and reports whether such a field exists. It is how the
// engine generation is chosen without naming Config.Walk in code, so
// the harness still compiles once that field is deleted.
func setStringField(p any, name, value string) bool {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	f := v.Elem().FieldByName(name)
	if !f.IsValid() || f.Kind() != reflect.String || !f.CanSet() {
		return false
	}
	f.SetString(value)
	return true
}

// simConfig builds the configuration of an in-process workload.
func simConfig(req simRequest) (sim.Config, bool, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = req.Seed
	cfg.Shards = req.Shards
	cfg.PhaseTimes = req.Phases || req.Traced
	switch req.Workload {
	case "sim-paper-churn":
		// Repairs only begin around round 1500: a shorter run leaves
		// protocol_work a count of a few dozen.
		cfg.Rounds = 2000
	case "sim-adaptive":
		cfg.NumPeers = 600
		cfg.Rounds = 2500
		cfg.RedundancySpec = "adaptive"
	default:
		return cfg, false, fmt.Errorf("no in-process workload %q", req.Workload)
	}
	engineSet := true
	if req.Engine != "" {
		engineSet = setStringField(&cfg, "Walk", req.Engine)
	}
	return cfg, engineSet, nil
}

// countingProbe counts protocol events; a speed-only change must leave
// every count as it was.
type countingProbe struct {
	sim.BaseProbe
	churn, deaths, repairs, stalls, cancels, redundancy int64
}

func (*countingProbe) ProbeEvents() sim.EventSet {
	return sim.EventChurn | sim.EventDeath | sim.EventRepair | sim.EventStall |
		sim.EventCancel | sim.EventRedundancyChange
}
func (p *countingProbe) OnChurn(sim.ChurnEvent)                 { p.churn++ }
func (p *countingProbe) OnDeath(sim.PeerEvent)                  { p.deaths++ }
func (p *countingProbe) OnRepair(sim.RepairEvent)               { p.repairs++ }
func (p *countingProbe) OnStall(sim.PeerEvent)                  { p.stalls++ }
func (p *countingProbe) OnCancel(sim.PeerEvent)                 { p.cancels++ }
func (p *countingProbe) OnRedundancyChange(sim.RedundancyEvent) { p.redundancy++ }

// summarizeSim extracts the simulated block from a finished run.
func summarizeSim(res *sim.Result) (simulated, error) {
	col := res.Collector
	raw, err := col.MarshalJSON()
	if err != nil {
		return simulated{}, fmt.Errorf("collector digest: %w", err)
	}
	sum := sha256.Sum256(raw)
	cfg := res.Config
	ttb, ttr := col.TimeToBackup(), col.TimeToRestore()
	out := simulated{
		Digest:          hex.EncodeToString(sum[:]),
		Peers:           cfg.NumPeers,
		Rounds:          cfg.Rounds,
		Repairs:         col.TotalRepairs(),
		RepairsPer1000:  float64(col.TotalRepairs()) * 1000 / (float64(cfg.NumPeers) * float64(cfg.Rounds)),
		Losses:          col.TotalLosses(),
		HardLosses:      col.TotalHardLosses(),
		Grows:           col.RedundancyGrows(),
		Shrinks:         col.RedundancyShrinks(),
		TTBN:            ttb.N(),
		TTRN:            ttr.N(),
		RestoresFailed:  col.RestoresFailed(),
		Deaths:          res.Deaths,
		Cancels:         res.Cancels,
		FinalPlacements: res.FinalPlacements,
	}
	if ttb.N() > 0 {
		out.TTBP50, out.TTBP95 = ttb.Quantile(0.5), ttb.Quantile(0.95)
	}
	if ttr.N() > 0 {
		out.TTRP50, out.TTRP95 = ttr.Quantile(0.5), ttr.Quantile(0.95)
	}
	return out, nil
}

// phaseLayer turns a run's PhaseTimes into the five sim.*_s metrics and
// their total, under prefix.
func phaseLayer(layer map[string]float64, prefix string, p *sim.PhaseTimes) {
	parts := map[string]time.Duration{
		"walk_s": p.Walk, "merge_s": p.Merge, "transfer_drain_s": p.TransferDrain,
		"evaluation_s": p.Evaluation, "maintenance_s": p.Maintenance,
	}
	total := 0.0
	for name, d := range parts {
		layer[prefix+name] = d.Seconds()
		total += d.Seconds()
	}
	layer[prefix+"phase_total_s"] = total
}

// runSimChild serves one request, given as JSON.
func runSimChild(request string, out io.Writer) error {
	var req simRequest
	if err := json.Unmarshal([]byte(request), &req); err != nil {
		return fmt.Errorf("child request: %w", err)
	}
	cfg, engineSet, err := simConfig(req)
	if err != nil {
		return err
	}
	res := simResult{EngineSet: engineSet, Layer: map[string]float64{}}
	tr := newTracer("")
	var probe *countingProbe
	if req.Traced {
		probe = &countingProbe{}
		cfg.Probes = append(cfg.Probes, probe)
	}

	// The operation is everything up to the digest; timing primitives
	// afterwards is not part of it.
	root := tr.begin("bench.op", 0)
	newID := tr.begin("sim.New", root)
	s, err := sim.New(cfg)
	tr.end(newID)
	if err != nil {
		return fmt.Errorf("sim.New: %w", err)
	}

	var rounds []float64 // milliseconds per StepRound
	var before, after runtime.MemStats
	if req.Traced {
		rounds = make([]float64, 0, cfg.Rounds)
		runtime.ReadMemStats(&before)
		loop := tr.begin("sim.StepRound", root) // one span for the loop, one child per round
		for {
			id := tr.begin("sim.StepRound", loop)
			ok := s.StepRound()
			tr.end(id)
			if !ok {
				tr.spans = tr.spans[:len(tr.spans)-1] // the call that found nothing left to do
				break
			}
			rounds = append(rounds, tr.get(id).seconds()*1e3)
		}
		tr.end(loop)
		runtime.ReadMemStats(&after)
	}
	// After a full StepRound loop no rounds remain and RunContext only
	// assembles the Result.
	finish := tr.begin("sim.RunContext", root)
	result, err := s.RunContext(context.Background())
	tr.end(finish)
	if err != nil {
		return fmt.Errorf("sim run: %w", err)
	}

	digest := tr.begin("metrics.Collector", root)
	res.Simulated, err = summarizeSim(result)
	tr.end(digest)
	tr.end(root)
	if err != nil {
		return err
	}
	res.OpS = tr.get(root).seconds()
	if result.Phases != nil {
		phaseLayer(res.Layer, "sim.", result.Phases)
	}
	if req.Traced {
		n := float64(len(rounds))
		res.Layer["sim.new_s"] = tr.get(newID).seconds()
		res.Layer["sim.round_ms_p50"] = quantile(rounds, 0.5)
		res.Layer["sim.round_ms_p99"] = quantile(rounds, 0.99)
		res.Layer["sim.round_ms_max"] = quantile(rounds, 1)
		res.Layer["sim.unattributed_s"] = sum(rounds)/1e3 - res.Layer["sim.phase_total_s"]
		res.Layer["sim.allocs_per_round"] = float64(after.Mallocs-before.Mallocs) / n
		res.Layer["sim.heap_mib_end"] = float64(after.HeapAlloc) / (1 << 20)
		res.Layer["churn.events"] = float64(probe.churn)
		res.Layer["churn.deaths"] = float64(probe.deaths)
		res.Layer["maintenance.repairs"] = float64(probe.repairs)
		res.Layer["maintenance.stalls"] = float64(probe.stalls)
		res.Layer["maintenance.cancels"] = float64(probe.cancels)
		if probe.repairs > 0 {
			res.Layer["maintenance.us_per_repair"] = res.Layer["sim.maintenance_s"] * 1e6 / float64(probe.repairs)
		}
		res.Layer["redundancy.changes"] = float64(probe.redundancy)
		res.Layer["overlay.final_placements"] = float64(result.FinalPlacements)

		prims := tr.begin("bench.primitives", 0)
		var group []primitive
		switch req.Workload {
		case "sim-paper-churn":
			group = fixedNPrimitives(s)
		case "sim-adaptive":
			group = adaptivePrimitives()
		}
		res.LayerErrors = append(res.LayerErrors, runPrimitives(group, res.Layer)...)
		tr.end(prims)
		res.Spans = tr.spans
	}
	return json.NewEncoder(out).Encode(res)
}
