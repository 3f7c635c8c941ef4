package maintenance

// The upload pick against the fold it replaced. parentTakeBestPlaceable
// is takeBestPlaceable as it stood when each pick folded the whole pool:
// the first placeable entry sets the best score, a strictly greater one
// replaces it, and the winner's place is filled by the pool's last
// entry. It is the reference the score-group pick must match pick for
// pick, leaving the pool in the same order; a counterexample is a bug in
// takeBestPlaceable, never in the reference.

import (
	"fmt"
	"math"
	"testing"

	"p2pbackup/internal/overlay"
	"p2pbackup/internal/rng"
)

// parentTakeBestPlaceable removes and returns the highest-scored
// placeable entry of *pool, or NoPeer if none is placeable; ties go to
// the first in pool order, and the pool's last entry fills the hole.
func parentTakeBestPlaceable(pool *[]poolEntry) overlay.PeerID {
	bestIdx := -1
	best := 0.0
	for i := range *pool {
		e := &(*pool)[i]
		if !e.placeable {
			continue
		}
		if bestIdx == -1 || e.score > best {
			bestIdx = i
			best = e.score
		}
	}
	if bestIdx == -1 {
		return overlay.NoPeer
	}
	chosen := (*pool)[bestIdx].ref.ID
	last := len(*pool) - 1
	(*pool)[bestIdx] = (*pool)[last]
	*pool = (*pool)[:last]
	return chosen
}

// pickBoth runs one upload step's picks, deficit of them or until none
// is placeable, through takeBestPlaceable on p's pool (from a fresh
// group, as planUpload starts one) and through the reference on a copy
// of it, and fails on the first difference in what is picked or in the
// pool order left behind. It returns how many were picked.
func pickBoth(t testing.TB, ws *Workspace, p *peerState, deficit int) int {
	t.Helper()
	want := append([]poolEntry(nil), p.pool...)
	start := append([]poolEntry(nil), p.pool...)
	ws.group, ws.head = ws.group[:0], 0
	picked := 0
	for ; picked < deficit; picked++ {
		got, ref := takeBestPlaceable(p, ws), parentTakeBestPlaceable(&want)
		if got != ref {
			t.Fatalf("pool %v, deficit %d: pick %d is %d, the fold's %d", start, deficit, picked, got, ref)
		}
		if got == overlay.NoPeer {
			break
		}
	}
	if !samePool(p.pool, want) {
		t.Fatalf("pool %v, deficit %d: left %v, the fold left %v", start, deficit, p.pool, want)
	}
	return picked
}

// samePool compares two pools entry for entry, scores bit for bit.
func samePool(a, b []poolEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ref != b[i].ref || a[i].placeable != b[i].placeable ||
			math.Float64bits(a[i].score) != math.Float64bits(b[i].score) {
			return false
		}
	}
	return true
}

// entries builds a pool, entry i being peer i with scores[i]; the
// entries at the listed indices are not placeable.
func entries(scores []float64, unplaceable ...int) []poolEntry {
	pool := make([]poolEntry, len(scores))
	for i, s := range scores {
		pool[i] = poolEntry{ref: overlay.Ref{ID: overlay.PeerID(i), Gen: 1}, score: s, placeable: true}
	}
	for _, i := range unplaceable {
		pool[i].placeable = false
	}
	return pool
}

// TestUploadPickMatchesFold holds takeBestPlaceable to the fold on
// written-out pools and on random ones: all scores tied, all distinct,
// and mixed; NaN where the fold takes it (first) and where it passes it
// over, including [7, NaN, 7, x] with x not placeable, where a group
// kept past the swap would miss the NaN the fold then takes; ±Inf; −0
// beside +0, which tie; non-placeable entries between the placeable;
// and deficits below, at and above the placeable count.
func TestUploadPickMatchesFold(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	cases := []struct {
		name        string
		scores      []float64
		unplaceable []int
	}{
		{"tied", []float64{3, 3, 3, 3, 3, 3, 3, 3}, nil},
		{"distinct", []float64{1, 8, 2, 7, 3, 6, 4, 5}, nil},
		{"mixed", []float64{2, 5, 5, 1, 5, 2, 2, 5, 0}, nil},
		{"nan-moved-to-front", []float64{7, nan, 7, 0}, []int{3}},
		{"nan-first", []float64{nan, 7, 7, nan, 9}, nil},
		{"nan-last", []float64{7, 7, 3, 7, nan}, nil},
		{"nan-unplaceable", []float64{7, nan, 7, 7}, []int{1}},
		{"inf", []float64{inf, 1, math.Inf(-1), inf, 0, inf}, nil},
		{"neg-inf-only", []float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}, nil},
		{"signed-zeros", []float64{negZero, 0, negZero, 0, -1}, nil},
		{"interleaved", []float64{9, 9, 4, 9, 9, 4, 9, 1}, []int{0, 3, 5}},
		{"none-placeable", []float64{1, 2, 3}, []int{0, 1, 2}},
		{"empty", nil, nil},
		{"last-is-best", []float64{1, 1, 2, 2}, nil},
	}
	for _, c := range cases {
		placeable := len(c.scores) - len(c.unplaceable)
		for _, deficit := range []int{1, max(placeable-1, 1), placeable, placeable + 2} {
			t.Run(fmt.Sprintf("%s/deficit=%d", c.name, deficit), func(t *testing.T) {
				p := &peerState{pool: entries(c.scores, c.unplaceable...)}
				if got := pickBoth(t, &Workspace{}, p, deficit); got != min(deficit, placeable) {
					t.Fatalf("picked %d of %d placeable for a deficit of %d", got, placeable, deficit)
				}
			})
		}
	}

	// Random pools, on one Workspace as a planner reuses it: scores from
	// a wide range, mostly distinct, or from palettes of few values, so
	// that groups are large and split by swaps.
	palettes := [][]float64{
		nil,
		{0, 1, 2, 3},
		{7, 7, 7, 2, 2, nan, inf, negZero, 0},
	}
	r := rng.New(1)
	ws := &Workspace{}
	for i := 0; i < 3000; i++ {
		pal := palettes[i%len(palettes)]
		pool := make([]poolEntry, r.Intn(300))
		for j := range pool {
			pool[j] = poolEntry{ref: overlay.Ref{ID: overlay.PeerID(j)}, placeable: r.Intn(5) != 0}
			if pal == nil {
				pool[j].score = float64(r.Intn(1000))
			} else {
				pool[j].score = pal[r.Intn(len(pal))]
			}
		}
		pickBoth(t, ws, &peerState{pool: pool}, r.Intn(len(pool)+3))
	}
}

// FuzzUploadPick holds takeBestPlaceable to the fold on arbitrary pools:
// the first byte is the deficit, every further byte one entry, its low
// four bits a score from a palette heavy in ties that holds NaN, ±Inf
// and both zeros, and its top bit clear for a placeable entry.
func FuzzUploadPick(f *testing.F) {
	f.Add([]byte{4, 0, 8, 0, 0x80})
	f.Add([]byte{16, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 9, 10, 11, 12, 0x89, 8, 0})
	f.Add([]byte{255, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	palette := [16]float64{7, math.NaN(), 7, 7, 2, 2, 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), 1e308, -1, 3, 7, 0.5, 2}
	ws := &Workspace{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		deficit := int(data[0])
		pool := make([]poolEntry, len(data)-1)
		for i, b := range data[1:] {
			pool[i] = poolEntry{ref: overlay.Ref{ID: overlay.PeerID(i)}, score: palette[b&15], placeable: b&0x80 == 0}
		}
		pickBoth(t, ws, &peerState{pool: pool}, deficit)
	})
}

// BenchmarkUploadPick measures one upload step's picks on a pool of 128
// or 256 candidates, at deficits of 1, 16 and 128, with every score
// tied, every score distinct, and the paper's mix: the age policy's
// scores in a paper-scale run, most candidates older than the horizon
// and so tied at L = 2160, the rest spread over younger ages. One pool in
// eight is not placeable. pick=fold is the reference, the pick as it was
// before score groups. Each iteration copies the pool back, which both
// sides pay alike.
func BenchmarkUploadPick(b *testing.B) {
	for _, size := range []int{128, 256} {
		for _, scores := range []string{"tied", "distinct", "paper-mix"} {
			r := rng.New(uint64(size))
			pool := make([]poolEntry, size)
			for i := range pool {
				pool[i] = poolEntry{ref: overlay.Ref{ID: overlay.PeerID(i)}, placeable: r.Intn(8) != 0}
				switch scores {
				case "tied":
					pool[i].score = 2160
				case "distinct":
					pool[i].score = float64(r.Intn(1 << 30))
				case "paper-mix":
					pool[i].score = float64(min(r.Intn(4000), 2160))
				}
			}
			for _, deficit := range []int{1, 16, 128} {
				for _, impl := range []string{"group", "fold"} {
					b.Run(fmt.Sprintf("pool=%d/scores=%s/deficit=%d/pick=%s", size, scores, deficit, impl), func(b *testing.B) {
						group := impl == "group"
						p := &peerState{pool: make([]poolEntry, size)}
						ws := &Workspace{}
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							p.pool = p.pool[:size]
							copy(p.pool, pool)
							ws.group, ws.head = ws.group[:0], 0
							for d := 0; d < deficit; d++ {
								var got overlay.PeerID
								if group {
									got = takeBestPlaceable(p, ws)
								} else {
									got = parentTakeBestPlaceable(&p.pool)
								}
								if got == overlay.NoPeer {
									break
								}
							}
						}
					})
				}
			}
		}
	}
}
