package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"p2pbackup/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStreamBasics(t *testing.T) {
	var s Stream
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Fatal("zero value must be empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population variance of this classic data set is 4; sample variance
	// is 32/7.
	if !almostEq(s.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.min != 2 || s.Max() != 9 {
		t.Fatalf("min/Max = %v/%v", s.min, s.Max())
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
}

func TestStreamMerge(t *testing.T) {
	r := rng.New(1)
	var whole, left, right Stream
	for i := 0; i < 1000; i++ {
		x := r.Float64()*10 - 5
		whole.Add(x)
		if i%2 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if !almostEq(left.Mean(), whole.Mean(), 1e-9) || !almostEq(left.Variance(), whole.Variance(), 1e-9) {
		t.Fatalf("merge mismatch: %v vs %v", left.String(), whole.String())
	}
	if left.min != whole.min || left.Max() != whole.Max() {
		t.Fatal("merge min/max mismatch")
	}
	var empty Stream
	before := left
	left.Merge(&empty)
	if left != before {
		t.Fatal("merging empty must be a no-op")
	}
	empty.Merge(&left)
	if empty.N() != left.N() {
		t.Fatal("merging into empty must copy")
	}
}

func TestStreamMergeEqualsSequentialProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, split uint8) bool {
		r := rng.New(uint64(seed))
		n := 10 + int(split)%90
		cut := int(split) % n
		var whole, a, b Stream
		for i := 0; i < n; i++ {
			x := r.Float64() * 100
			whole.Add(x)
			if i < cut {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		return a.N() == whole.N() &&
			almostEq(a.Mean(), whole.Mean(), 1e-9) &&
			almostEq(a.Variance(), whole.Variance(), 1e-7)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStreamCI(t *testing.T) {
	var s Stream
	s.Add(1)
	if s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("single sample must have zero stderr")
	}
	for i := 0; i < 9999; i++ {
		s.Add(float64(i % 2))
	}
	if s.StdErr() <= 0 || s.CI95() <= s.StdErr() {
		t.Fatal("CI95 must exceed stderr")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m, err := Quantile(xs, 0.5); err != nil || m != 2 {
		t.Fatalf("median = %v, %v", m, err)
	}
	if q, _ := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q, _ := Quantile(xs, 1); q != 3 {
		t.Fatalf("q1 = %v", q)
	}
	if q, _ := Quantile(xs, 0.25); !almostEq(q, 1.5, 1e-12) {
		t.Fatalf("q0.25 = %v, want 1.5", q)
	}
	if q, _ := Quantile([]float64{7}, 0.9); q != 7 {
		t.Fatalf("single-element quantile = %v", q)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, errEmpty) {
		t.Fatal("empty quantile must fail")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range q must fail")
	}
	// Input must not be mutated.
	if xs[0] != 3 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("repairs")
	if s.Name() != "repairs" || s.Len() != 0 {
		t.Fatal("fresh series wrong")
	}
	if x, y := s.Last(); x != 0 || y != 0 {
		t.Fatal("empty Last must be zero")
	}
	s.Append(1, 2)
	s.Append(2, 3)
	s.Append(3, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if x, y := s.At(1); x != 2 || y != 3 {
		t.Fatalf("At(1) = %v,%v", x, y)
	}
	if x, y := s.Last(); x != 3 || y != 5 {
		t.Fatalf("Last = %v,%v", x, y)
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := fitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) || !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if _, err := fitLine(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := fitLine(xs, ys[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := fitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
	flat, err := fitLine([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil || flat.Slope != 0 || flat.R2 != 1 {
		t.Fatalf("flat fit = %+v, %v", flat, err)
	}
}

func TestFitParetoLogLog(t *testing.T) {
	// Draw from a known Pareto and recover alpha.
	r := rng.New(6)
	const alpha, xm = 1.5, 2.0
	samples := make([]float64, 20000)
	for i := range samples {
		u := 1 - r.Float64()
		samples[i] = xm * math.Pow(u, -1/alpha)
	}
	got, fit, err := FitParetoLogLog(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-alpha) > 0.1 {
		t.Fatalf("estimated alpha = %v, want ~%v (R2=%v)", got, alpha, fit.R2)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("log-log fit R2 = %v, want near 1 for true Pareto", fit.R2)
	}
	if _, _, err := FitParetoLogLog(samples[:5]); err == nil {
		t.Fatal("tiny sample accepted")
	}
	if _, _, err := FitParetoLogLog([]float64{-1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err == nil {
		t.Fatal("non-positive samples accepted")
	}
}
