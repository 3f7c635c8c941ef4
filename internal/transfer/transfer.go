// Package transfer models per-peer access links and schedules block
// transfers over them, replacing the engine's instantaneous placement
// with in-flight uploads and restores that land rounds later.
//
// The paper's section 2.2.4 reduces bandwidth to a single per-round
// upload budget; "On Scheduling and Redundancy for P2P Backup"
// (PAPERS.md, arXiv 1009.1344) shows the scheduling dimension this
// collapses: asymmetric links, concurrent-transfer limits, and the gap
// between deciding to place a block and the block actually landing.
// This package supplies that dimension:
//
//   - Class describes one bandwidth class: asymmetric up/down rates in
//     blocks per round plus a concurrent-upload cap. A Params holds the
//     population's classes with mixing proportions; peers draw a class
//     at join time from the run's generator, exactly like behaviour
//     profiles.
//   - Scheduler turns each placement or restore decision into a
//     Transfer with a deterministic completion round, computed by
//     serialising each peer's uploads on its uplink in virtual time
//     (an M/D/1-style FIFO: a transfer starts when the uplink frees up
//     and flows at the min of the source's up rate and the sink's down
//     rate), and queues it: PopDue hands due transfers back in
//     (completion round, ID) order. Host quota is reserved at enqueue
//     and released at delivery or abort, so an accepted transfer can
//     always land; an owner restores one archive at a time.
//   - Mid-flight interruptions are explicit: either endpoint going
//     offline suspends a transfer (progress kept or discarded per
//     ResumePolicy), an endpoint dying aborts it.
//
// The degenerate configuration — one class with infinite rates, what
// NewScheduler takes nil Params for — is "instant" mode: completions land the next round, class sampling
// consumes no randomness, and the simulation engine keeps routing
// uploads through the historical UploadBudgetPerRound path, which is
// what keeps the pre-transfer golden digests bit-identical.
//
// Rates convert from the cost model's bytes-per-second links through
// FromLink, connecting internal/costmodel's section 2.2.4 arithmetic
// to the engine: a transfer's in-simulation duration agrees with
// costmodel.EstimateRepair on the same link and code shape (see the
// agreement test).
package transfer

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/rng"
)

// roundSeconds converts between the cost model's wall-clock rates and
// the engine's rounds: one simulation round is one hour.
const roundSeconds = 3600

// Class is one bandwidth class: the asymmetric link of a fraction of
// the population, in blocks per round. A zero rate means infinite
// (that direction never constrains a transfer); both rates zero is an
// instant class.
type Class struct {
	// Name labels the class in specs and reports.
	Name string
	// Proportion is the class's population share; Parse
	// normalises proportions to sum to 1.
	Proportion float64
	// Up is the uplink rate in blocks per round (0 = infinite).
	Up float64
	// Down is the downlink rate in blocks per round (0 = infinite).
	Down float64
	// MaxInflight caps a peer's concurrent outgoing uploads
	// (0 = unlimited).
	MaxInflight int
}

// Instant reports whether the class never delays a transfer.
func (c Class) Instant() bool { return c.Up == 0 && c.Down == 0 }

// ResumePolicy selects what happens to a suspended transfer's partial
// progress when it resumes.
type ResumePolicy uint8

const (
	// Resume keeps the blocks already transferred; only the remainder
	// is re-sent (rsync-style delta resumption).
	Resume ResumePolicy = iota
	// Restart discards partial progress; the transfer re-sends from
	// byte zero (plain HTTP PUT semantics).
	Restart
)

var resumePolicyNames = [...]string{"resume", "restart"}

// String returns the policy's spec-string name.
func (p ResumePolicy) String() string {
	if int(p) < len(resumePolicyNames) {
		return resumePolicyNames[p]
	}
	return fmt.Sprintf("ResumePolicy(%d)", uint8(p))
}

// Params configures the transfer subsystem: the population's bandwidth
// classes and the interruption policy. A mix of instant classes only
// (Instant) schedules no upload: the engine then places blocks at once,
// bounded by its per-round upload budget (sim.Config.UploadBudgetPerRound),
// as it does with no Params at all.
type Params struct {
	// Classes is the bandwidth-class mix; at least one.
	Classes []Class
	// Policy selects resume-vs-restart semantics for transfers
	// interrupted by an endpoint going offline.
	Policy ResumePolicy
}

// validate checks the parameters and returns a normalised copy:
// proportions scaled to sum to 1. The receiver is not modified.
func (p *Params) validate() (*Params, error) {
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("transfer: no bandwidth classes")
	}
	if int(p.Policy) >= len(resumePolicyNames) {
		return nil, fmt.Errorf("transfer: unknown resume policy %d", p.Policy)
	}
	out := &Params{
		Classes: append([]Class(nil), p.Classes...),
		Policy:  p.Policy,
	}
	total := 0.0
	for i := range out.Classes {
		c := &out.Classes[i]
		if c.Proportion <= 0 {
			return nil, fmt.Errorf("transfer: class %q proportion %v must be positive", c.Name, c.Proportion)
		}
		if c.Up < 0 || c.Down < 0 {
			return nil, fmt.Errorf("transfer: class %q has negative rate (up=%v down=%v)", c.Name, c.Up, c.Down)
		}
		if c.MaxInflight < 0 {
			return nil, fmt.Errorf("transfer: class %q has negative inflight cap %d", c.Name, c.MaxInflight)
		}
		total += c.Proportion
	}
	// NaN passes every comparison above and +Inf the sign checks, and
	// either would leave NaN or zero shares behind, as would finite
	// proportions whose sum overflows.
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for _, c := range out.Classes {
		if !finite(c.Proportion) || !finite(c.Up) || !finite(c.Down) {
			return nil, fmt.Errorf("transfer: class %q has a non-finite proportion or rate (prop=%v up=%v down=%v)",
				c.Name, c.Proportion, c.Up, c.Down)
		}
	}
	if !finite(total) {
		return nil, fmt.Errorf("transfer: class proportions sum to %v", total)
	}
	for i := range out.Classes {
		out.Classes[i].Proportion /= total
	}
	return out, nil
}

// Instant reports whether every class is instant: the degenerate mode
// equivalent to the engine's historical immediate placement.
func (p *Params) Instant() bool {
	for _, c := range p.Classes {
		if !c.Instant() {
			return false
		}
	}
	return true
}

// SampleIndex draws a class index according to the proportions. With a
// single class no randomness is consumed — load-bearing for the
// instant-mode golden digests: attaching a one-class Params must not
// perturb the run's rng stream.
func (p *Params) SampleIndex(r *rng.Rand) int {
	if len(p.Classes) <= 1 {
		return 0
	}
	u := r.Float64()
	acc := 0.0
	for i := range p.Classes {
		acc += p.Classes[i].Proportion
		if u < acc {
			return i
		}
	}
	return len(p.Classes) - 1
}

// instantParams returns the degenerate single-class configuration:
// infinite rates, unlimited concurrency — the pre-transfer engine's
// semantics expressed in this package's vocabulary.
func instantParams() *Params {
	return &Params{Classes: []Class{{Name: "instant", Proportion: 1}}}
}

// FromLink converts a cost-model link into a bandwidth class: bytes
// per second become blocks per round through the code's block size.
func FromLink(name string, proportion float64, l costmodel.Link, c costmodel.Code, maxInflight int) (Class, error) {
	if l.UploadBps <= 0 || l.DownloadBps <= 0 {
		return Class{}, costmodel.ErrBadLink
	}
	if err := c.Validate(); err != nil {
		return Class{}, err
	}
	block := float64(c.BlockBytes())
	return Class{
		Name:        name,
		Proportion:  proportion,
		Up:          l.UploadBps * roundSeconds / block,
		Down:        l.DownloadBps * roundSeconds / block,
		MaxInflight: maxInflight,
	}, nil
}

// ---------------------------------------------------------------------------
// Class-spec parsing (the CLI's -bandwidth flag)

// defaultInflight is the concurrent-upload cap the presets use: wide
// enough that the uplink, not the cap, is the binding constraint for a
// DSL-class link, tight enough to model real client connection limits.
const defaultInflight = 32

// DSLClass returns the paper's reference DSL link (32 kB/s up,
// 256 kB/s down, 1 MB blocks) as a bandwidth class.
func DSLClass(name string, proportion float64) Class {
	c, err := FromLink(name, proportion, costmodel.DSL2009(), costmodel.PaperCode(), defaultInflight)
	if err != nil {
		panic(err) // static inputs; cannot fail
	}
	return c
}

// ftthClass returns the paper's FTTH link (128 kB/s up, 1 MB/s down)
// as a bandwidth class.
func ftthClass(name string, proportion float64) Class {
	c, err := FromLink(name, proportion, costmodel.FTTH2009(), costmodel.PaperCode(), defaultInflight)
	if err != nil {
		panic(err) // static inputs; cannot fail
	}
	return c
}

// Presets returns the named preset specs Parse accepts, for help text.
func Presets() []string { return []string{"instant", "dsl", "mixed", "skewed"} }

// Parse builds Params from a class-spec string. Accepted forms:
//
//	instant                           the degenerate immediate-placement mode
//	dsl                               one class, the paper's DSL link
//	mixed                             50% DSL, 50% FTTH
//	skewed                            60% slow-uplink, 30% DSL, 10% FTTH
//	[restart;]name:prop:up/down[:inflight];...   explicit classes
//
// Explicit rates are blocks per round (0 = infinite); a leading
// "restart" (or "resume") token selects the interruption policy.
// The result is already validated and normalised.
func Parse(spec string) (*Params, error) {
	switch strings.TrimSpace(spec) {
	case "":
		return nil, fmt.Errorf("transfer: empty bandwidth spec")
	case "instant":
		return instantParams().validate()
	case "dsl":
		return (&Params{Classes: []Class{DSLClass("dsl", 1)}}).validate()
	case "mixed":
		return (&Params{Classes: []Class{
			DSLClass("dsl", 0.5),
			ftthClass("ftth", 0.5),
		}}).validate()
	case "skewed":
		// The slow-uplink population: a long tail of peers whose uplink
		// is ~4x slower than DSL dominates, with a small fast minority.
		dsl := DSLClass("dsl", 0.3)
		return (&Params{Classes: []Class{
			{Name: "slow", Proportion: 0.6, Up: dsl.Up / 4, Down: dsl.Down / 4, MaxInflight: defaultInflight},
			dsl,
			ftthClass("ftth", 0.1),
		}}).validate()
	}
	p := &Params{}
	parts := strings.Split(spec, ";")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i == 0 {
			switch part {
			case "restart":
				p.Policy = Restart
				continue
			case "resume":
				p.Policy = Resume
				continue
			}
		}
		c, err := parseClass(part)
		if err != nil {
			return nil, err
		}
		p.Classes = append(p.Classes, c)
	}
	return p.validate()
}

// parseClass parses one "name:prop:up/down[:inflight]" clause.
func parseClass(s string) (Class, error) {
	fields := strings.Split(s, ":")
	if len(fields) != 3 && len(fields) != 4 {
		return Class{}, fmt.Errorf("transfer: class %q: want name:prop:up/down[:inflight]", s)
	}
	c := Class{Name: fields[0]}
	prop, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return Class{}, fmt.Errorf("transfer: class %q: bad proportion: %v", s, err)
	}
	c.Proportion = prop
	up, down, ok := strings.Cut(fields[2], "/")
	if !ok {
		return Class{}, fmt.Errorf("transfer: class %q: rates want up/down", s)
	}
	if c.Up, err = strconv.ParseFloat(up, 64); err != nil {
		return Class{}, fmt.Errorf("transfer: class %q: bad up rate: %v", s, err)
	}
	if c.Down, err = strconv.ParseFloat(down, 64); err != nil {
		return Class{}, fmt.Errorf("transfer: class %q: bad down rate: %v", s, err)
	}
	if len(fields) == 4 {
		if c.MaxInflight, err = strconv.Atoi(fields[3]); err != nil {
			return Class{}, fmt.Errorf("transfer: class %q: bad inflight cap: %v", s, err)
		}
	}
	return c, nil
}
