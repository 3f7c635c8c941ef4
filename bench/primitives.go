package main

import (
	"bytes"
	"fmt"
	"time"

	"p2pbackup/internal/backup"
	"p2pbackup/internal/erasure"
	"p2pbackup/internal/gf256"
	"p2pbackup/internal/monitor"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/redundancy"
	"p2pbackup/internal/rng"
	"p2pbackup/internal/selection"
	"p2pbackup/internal/sim"
)

// A primitive is one small public function of a layer timed on its own,
// on inputs of the shape the workload gives it. The issue's table says
// which phase, and through it which end-to-end metric, each should move.
type primitive struct {
	metric string
	// scale converts seconds per call into the metric's unit; a
	// throughput metric sets bytes and reports MiB/s.
	scale float64
	bytes int
	// prepare builds the inputs and returns the call to time.
	prepare func() (func(), error)
}

var sink float64 // keeps timed results alive

// timeCall returns the median seconds per call of f over three batches
// sized to about 40 ms each (one call each when a call takes longer).
func timeCall(f func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d > 10*time.Millisecond {
			n = max(1, int(float64(n)*float64(40*time.Millisecond)/float64(d)))
			break
		}
		n *= 8
	}
	per := make([]float64, 3)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = time.Since(start).Seconds() / float64(n)
	}
	return median(per)
}

// runPrimitives times each primitive into layer. One that cannot be set
// up, or panics, leaves its metric absent and is returned as an error
// line: a probe never fails the run.
func runPrimitives(group []primitive, layer map[string]float64) (errs []string) {
	for _, p := range group {
		func() {
			defer func() {
				if r := recover(); r != nil {
					errs = append(errs, fmt.Sprintf("%s: panic: %v", p.metric, r))
				}
			}()
			call, err := p.prepare()
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", p.metric, err))
				return
			}
			per := timeCall(call)
			if p.bytes > 0 {
				layer[p.metric] = float64(p.bytes) / (1 << 20) / per
			} else {
				layer[p.metric] = per * p.scale
			}
		}()
	}
	return errs
}

// intervalHistory is the monitored history of a peer with the given
// number of session transitions inside the 90-day window.
func intervalHistory(transitions int) (*monitor.IntervalHistory, error) {
	const window = 2160
	h := monitor.NewIntervalHistory(window)
	step := int64(window / (transitions + 1))
	online := true
	for round := int64(0); round < window; round += step {
		if err := h.RecordTransition(round, online); err != nil {
			return nil, err
		}
		online = !online
	}
	return h, nil
}

// fixedNPrimitives are the calls under sim.maintenance_s and sim.walk_s
// on the three fixed-n sim workloads. The ledger flip runs on the
// finished paper-scale simulation's own 25 000 x 256 ledger.
func fixedNPrimitives(s *sim.Simulation) []primitive {
	views := func() ([]selection.View, selection.Policy, error) {
		pol, err := selection.Parse("age")
		if err != nil {
			return nil, nil, err
		}
		vs := make([]selection.View, 1024)
		for i := range vs {
			h, err := intervalHistory(20 + i%80)
			if err != nil {
				return nil, nil, err
			}
			vs[i] = selection.View{
				Observed: selection.Observed{Age: int64(i * 37 % 5000), History: h},
				Oracle:   selection.Oracle{Availability: float64(i%100) / 100, Remaining: int64(i * 13 % 9000)},
			}
		}
		return vs, pol, nil
	}
	ctx := selection.Context{Round: 2160}
	return []primitive{
		{metric: "selection.score_ns", scale: 1e9, prepare: func() (func(), error) {
			vs, pol, err := views()
			i := 0
			return func() { sink += pol.Score(ctx, vs[i%len(vs)]); i++ }, err
		}},
		{metric: "selection.agree_ns", scale: 1e9, prepare: func() (func(), error) {
			vs, pol, err := views()
			r, i := rng.New(11), 0
			return func() {
				if selection.AgreeCtx(r, pol, ctx, vs[i%len(vs)], vs[(i*7+3)%len(vs)]) {
					sink++
				}
				i++
			}, err
		}},
		{metric: "overlay.flip_ns", scale: 1e9, prepare: func() (func(), error) {
			led, i := s.Ledger(), 0
			return func() { led.SetOnline(overlay.PeerID(i/2%1024), i%2 == 1); i++ }, nil
		}},
		{metric: "rng.uint64_ns", scale: 1e9, prepare: func() (func(), error) {
			r := rng.New(7)
			return func() { sink += float64(r.Uint64() & 1) }, nil
		}},
	}
}

// adaptivePrimitives are the calls under sim.evaluation_s, the phase
// that is ~94% of sim-adaptive and 0 everywhere else.
func adaptivePrimitives() []primitive {
	return []primitive{
		{metric: "redundancy.target_us", scale: 1e6, prepare: func() (func(), error) {
			pol, err := redundancy.Parse("adaptive")
			if err != nil {
				return nil, err
			}
			if pol, err = pol.Bind(128, 148, 256); err != nil {
				return nil, err
			}
			i := 0
			return func() {
				obs := redundancy.Observation{Round: 2160, Current: 256, DataBlocks: 128,
					Availability: 0.50 + 0.05*float64(i%10)}
				sink += float64(pol.Target(obs))
				i++
			}, nil
		}},
		{metric: "redundancy.durability_us", scale: 1e6, prepare: func() (func(), error) {
			i := 0
			return func() { sink += redundancy.Durability(256, 148, 0.50+0.05*float64(i%10)); i++ }, nil
		}},
		{metric: "monitor.uptime_ns", scale: 1e9, prepare: func() (func(), error) {
			h, err := intervalHistory(32)
			i := int64(0)
			return func() { sink += h.Uptime(2160, 1+i%2160); i++ }, err
		}},
	}
}

// livePrimitives are the kernels under backup.encode_s and
// backup.decode_s at the workload's code shape, 128+128. The workload's
// shards are 384 KiB, where one encode takes seconds; the kernels are
// timed on 32 KiB shards, and backup.encode_s and backup.decode_s carry
// the full-size cost.
func livePrimitives() []primitive {
	const k, m, shard = 128, 128, 32 << 10
	encoded := func() (*erasure.Encoder, [][]byte, error) {
		enc, err := erasure.New(k, m)
		if err != nil {
			return nil, nil, err
		}
		r := rng.New(1)
		shards := make([][]byte, k+m)
		for i := range shards {
			shards[i] = make([]byte, shard)
			if i < k {
				for j := 0; j < shard; j += 8 {
					v := r.Uint64()
					for b := 0; b < 8; b++ {
						shards[i][j+b] = byte(v >> (8 * b))
					}
				}
			}
		}
		return enc, shards, enc.Encode(shards)
	}
	sealed := func() (key, plain, box []byte, err error) {
		if key, err = backup.NewSessionKey(); err != nil {
			return
		}
		plain = bytes.Repeat([]byte{0x5a}, 8<<20)
		box, err = backup.Seal(key, plain)
		return
	}
	return []primitive{
		{metric: "erasure.encode_mib_per_s", bytes: k * shard, prepare: func() (func(), error) {
			enc, shards, err := encoded()
			return func() {
				if err := enc.Encode(shards); err != nil {
					panic(err)
				}
			}, err
		}},
		{metric: "erasure.reconstruct_mib_per_s", bytes: k * shard, prepare: func() (func(), error) {
			enc, shards, err := encoded()
			work := make([][]byte, k+m)
			return func() {
				copy(work, shards)
				for i := 0; i < k; i++ { // every data shard lost: worst-case decode
					work[i] = nil
				}
				if err := enc.ReconstructData(work); err != nil {
					panic(err)
				}
			}, err
		}},
		{metric: "gf256.muladd_mib_per_s", bytes: shard, prepare: func() (func(), error) {
			src, dst := bytes.Repeat([]byte{0xa7}, shard), make([]byte, shard)
			c := byte(1)
			return func() { gf256.MulAddSlice(c|1, src, dst); c += 2 }, nil
		}},
		{metric: "backup.seal_mib_per_s", bytes: 8 << 20, prepare: func() (func(), error) {
			key, plain, _, err := sealed()
			return func() {
				if _, err := backup.Seal(key, plain); err != nil {
					panic(err)
				}
			}, err
		}},
		{metric: "backup.open_mib_per_s", bytes: 8 << 20, prepare: func() (func(), error) {
			key, _, box, err := sealed()
			return func() {
				if _, err := backup.Open(key, box); err != nil {
					panic(err)
				}
			}, err
		}},
	}
}
