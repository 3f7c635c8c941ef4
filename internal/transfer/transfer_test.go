package transfer

import (
	"math"
	"testing"

	"p2pbackup/internal/costmodel"
	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

func TestValidateNormalisesProportions(t *testing.T) {
	in := Params{Classes: []Class{
		{Name: "a", Proportion: 3},
		{Name: "b", Proportion: 1},
	}}
	out, err := in.validate()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Classes[0].Proportion; got != 0.75 {
		t.Errorf("class a proportion = %v, want 0.75", got)
	}
	if in.Classes[0].Proportion != 3 {
		t.Errorf("Validate mutated its receiver (proportion %v)", in.Classes[0].Proportion)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Params{
		{},
		{Classes: []Class{{Name: "z", Proportion: 0}}},
		{Classes: []Class{{Name: "n", Proportion: 1, Up: -1}}},
		{Classes: []Class{{Name: "i", Proportion: 1, MaxInflight: -2}}},
		{Classes: []Class{{Name: "p", Proportion: 1}}, Policy: ResumePolicy(9)},
	}
	for i, p := range bad {
		if _, err := p.validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid params", i)
		}
	}
}

// TestSampleIndexSingleClassDrawsNothing pins the property the
// instant-mode golden digests rest on: attaching a one-class Params
// must not perturb the run's rng stream.
func TestSampleIndexSingleClassDrawsNothing(t *testing.T) {
	p, err := instantParams().validate()
	if err != nil {
		t.Fatal(err)
	}
	a, b := rng.New(7), rng.New(7)
	if got := p.SampleIndex(a); got != 0 {
		t.Fatalf("single-class SampleIndex = %d, want 0", got)
	}
	if a.Float64() != b.Float64() {
		t.Error("single-class SampleIndex consumed randomness")
	}
}

func TestSampleIndexProportions(t *testing.T) {
	p, err := (&Params{Classes: []Class{
		{Name: "slow", Proportion: 0.7},
		{Name: "fast", Proportion: 0.3},
	}}).validate()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.SampleIndex(r)]++
	}
	if frac := float64(counts[0]) / n; math.Abs(frac-0.7) > 0.02 {
		t.Errorf("slow class frequency = %v, want ~0.7", frac)
	}
}

func TestParseSpecs(t *testing.T) {
	for _, preset := range Presets() {
		p, err := Parse(preset)
		if err != nil {
			t.Fatalf("preset %q: %v", preset, err)
		}
		if (preset == "instant") != p.Instant() {
			t.Errorf("preset %q: Instant() = %v", preset, p.Instant())
		}
	}
	p, err := Parse("restart;slow:0.6:28/225:16;fast:0.4:0/0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy != Restart {
		t.Errorf("policy = %v, want restart", p.Policy)
	}
	if len(p.Classes) != 2 || p.Classes[0].MaxInflight != 16 || p.Classes[0].Up != 28 {
		t.Errorf("parsed classes = %+v", p.Classes)
	}
	for _, bad := range []string{"", "nope", "a:1", "a:x:1/2", "a:1:12", "a:1:1/2:many"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted invalid spec", bad)
		}
	}
}

// newTestSched builds a scheduler over n slots, all in class 0 of the
// given params (validated here).
func newTestSched(t *testing.T, p *Params, n int) (*Scheduler, *overlay.Table) {
	t.Helper()
	vp, err := p.validate()
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(vp, n)
	return s, overlay.NewTable(n)
}

// TestAgreementWithCostModel is the satellite wiring check: a repair's
// upload phase scheduled block by block over a FromLink class must
// complete in exactly the rounds costmodel.EstimateRepair predicts for
// the same link and code shape (ceiling to whole rounds — the engine's
// event granularity).
func TestAgreementWithCostModel(t *testing.T) {
	link, code := costmodel.DSL2009(), costmodel.PaperCode()
	const d = 128 // the paper's worst-case repair
	cls, err := FromLink("dsl", 1, link, code, 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, tab := newTestSched(t, &Params{Classes: []Class{cls}}, 2)
	var last *Transfer
	for i := 0; i < d; i++ {
		last = sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1))
	}
	cost, err := costmodel.EstimateRepair(link, code, d)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := int64(math.Ceil(cost.Upload.Seconds() / roundSeconds))
	if last.CompleteAt != wantRounds {
		t.Errorf("last of %d blocks lands at round %d, cost model says %d (%v upload)",
			d, last.CompleteAt, wantRounds, cost.Upload)
	}
}

func TestInstantLandsNextRound(t *testing.T) {
	sched, tab := newTestSched(t, instantParams(), 2)
	tr := sched.EnqueueUpload(5, tab.Ref(0), tab.Ref(1))
	if tr.CompleteAt != 6 {
		t.Errorf("instant transfer completes at %d, want 6", tr.CompleteAt)
	}
}

// TestUplinkSerialises: two 1-block transfers on a 0.5 blocks/round
// uplink queue FIFO — the second waits for the first.
func TestUplinkSerialises(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "slow", Proportion: 1, Up: 0.5, Down: 0}}}
	sched, tab := newTestSched(t, p, 3)
	a := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1))
	b := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(2))
	if a.CompleteAt != 2 || b.CompleteAt != 4 {
		t.Errorf("completions = %d, %d; want 2, 4 (FIFO uplink)", a.CompleteAt, b.CompleteAt)
	}
	if got := sched.Inflight(0); got != 2 {
		t.Errorf("inflight = %d, want 2", got)
	}
	if got := sched.Reserved(1); got != 1 {
		t.Errorf("reserved = %d, want 1", got)
	}
}

func TestUploadSlotsCap(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "c", Proportion: 1, Up: 1, MaxInflight: 2}}}
	sched, tab := newTestSched(t, p, 4)
	if got := sched.UploadSlots(0); got != 2 {
		t.Fatalf("slots = %d, want 2", got)
	}
	sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1))
	sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(2))
	if got := sched.UploadSlots(0); got != 0 {
		t.Errorf("slots after filling = %d, want 0", got)
	}
}

// TestSuspendResumeKeepsProgress: under the Resume policy a transfer
// interrupted halfway re-books only its remainder.
func TestSuspendResumeKeepsProgress(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "slow", Proportion: 1, Up: 0.25, Down: 0}}}
	sched, tab := newTestSched(t, p, 2)
	online := func(overlay.PeerID) bool { return true }
	tr := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1)) // 4 rounds of flow
	if tr.CompleteAt != 4 {
		t.Fatalf("completes at %d, want 4", tr.CompleteAt)
	}
	sched.SuspendPeer(0, 2) // half flowed
	if !tr.Suspended || tr.Remaining != 0.5 {
		t.Fatalf("after suspend: suspended=%v remaining=%v, want true, 0.5", tr.Suspended, tr.Remaining)
	}
	sched.ResumePeer(0, 10, online)
	if tr.Suspended {
		t.Fatal("transfer still suspended after both endpoints came back")
	}
	if tr.CompleteAt != 12 {
		t.Errorf("resumed completion = %d, want 12 (2 rounds of remainder)", tr.CompleteAt)
	}
	if got := sched.PopDue(11); got != nil {
		t.Errorf("PopDue(11) = transfer %d, want nothing before round 12", got.ID)
	}
	if got := sched.PopDue(12); got != tr {
		t.Errorf("PopDue(12) = %v, want the resumed transfer", got)
	}
}

// TestSuspendRestartDiscardsProgress: the Restart policy re-sends from
// scratch.
func TestSuspendRestartDiscardsProgress(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "slow", Proportion: 1, Up: 0.25, Down: 0}}, Policy: Restart}
	sched, tab := newTestSched(t, p, 2)
	tr := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1))
	sched.SuspendPeer(0, 2)
	if tr.Remaining != 1 {
		t.Fatalf("after restart-suspend: remaining = %v, want 1", tr.Remaining)
	}
	sched.ResumePeer(0, 10, func(overlay.PeerID) bool { return true })
	if tr.CompleteAt != 14 {
		t.Errorf("restarted completion = %d, want 14 (full 4 rounds again)", tr.CompleteAt)
	}
}

// TestResumeWaitsForOtherEndpoint: a transfer whose far end is still
// offline stays suspended.
func TestResumeWaitsForOtherEndpoint(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "c", Proportion: 1, Up: 1, Down: 0}}}
	sched, tab := newTestSched(t, p, 2)
	tr := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1))
	sched.SuspendPeer(1, 0) // the host went offline
	hostOnline := false
	online := func(id overlay.PeerID) bool {
		if id == 1 {
			return hostOnline
		}
		return true
	}
	sched.ResumePeer(0, 3, online)
	if !tr.Suspended {
		t.Fatal("transfer resumed while the host is offline")
	}
	if got := sched.PopDue(100); got != nil {
		t.Fatalf("PopDue returned suspended transfer %d", got.ID)
	}
	hostOnline = true
	sched.ResumePeer(1, 5, online)
	if tr.Suspended || tr.CompleteAt != 6 {
		t.Fatalf("host coming back: suspended=%v completes at %d, want resumed at 6", tr.Suspended, tr.CompleteAt)
	}
	if got := sched.PopDue(6); got != tr {
		t.Errorf("PopDue(6) = %v, want the resumed transfer", got)
	}
}

// TestAbortAtCompletionBoundary is the "source dies at the completion
// round" edge case at the scheduler level: the abort wins, accounting
// is released, and the transfer is gone before any delivery could read
// it.
func TestAbortAtCompletionBoundary(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "c", Proportion: 1, Up: 0.5, Down: 0}}}
	sched, tab := newTestSched(t, p, 2)
	tr := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1)) // completes at round 2
	aborted := sched.AbortPeer(0)                        // owner dies in round 2's churn phase
	if len(aborted) != 1 || aborted[0].ID != tr.ID {
		t.Fatalf("aborted %d transfers, want the in-flight one", len(aborted))
	}
	if _, ok := sched.xfers[tr.ID]; ok {
		t.Error("aborted transfer still registered")
	}
	if sched.Inflight(0) != 0 || sched.Reserved(1) != 0 {
		t.Errorf("abort leaked accounting: inflight=%d reserved=%d", sched.Inflight(0), sched.Reserved(1))
	}
}

// TestAbortOwnerLeavesHostedTransfers: resetting an archive kills its
// own uploads and restore but not the blocks flowing toward the slot
// from other owners.
func TestAbortOwnerLeavesHostedTransfers(t *testing.T) {
	p := &Params{Classes: []Class{{Name: "c", Proportion: 1, Up: 1, Down: 1}}}
	sched, tab := newTestSched(t, p, 3)
	own := sched.EnqueueUpload(0, tab.Ref(0), tab.Ref(1))
	res := sched.EnqueueRestore(0, tab.Ref(0), 4)
	hosted := sched.EnqueueUpload(0, tab.Ref(2), tab.Ref(0))
	aborted := sched.AbortOwner(0)
	if len(aborted) != 2 {
		t.Fatalf("aborted %d transfers, want 2 (upload + restore)", len(aborted))
	}
	for _, tr := range aborted {
		if tr.ID != own.ID && tr.ID != res.ID {
			t.Errorf("aborted transfer %d is not owned by slot 0", tr.ID)
		}
	}
	if _, ok := sched.xfers[hosted.ID]; !ok {
		t.Error("hosted transfer was killed by AbortOwner")
	}
}
