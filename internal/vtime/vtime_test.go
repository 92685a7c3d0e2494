package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50 * Nanosecond)
	if t1 != 150 {
		t.Fatalf("Add: got %d, want 150", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d, want 50", d)
	}
}

func TestAddWeighted(t *testing.T) {
	for _, tc := range []struct {
		acc, d Duration
		w      int
		want   Duration
		ok     bool
	}{
		{10, 3, 4, 22, true},
		{0, math.MaxInt64, 1, math.MaxInt64, true},
		{1, math.MaxInt64, 1, 0, false},
		{0, 2, 9e18, 0, false},
		{0, 1 << 32, 1 << 32, 0, false},
		{-1, 1, 1, 0, false},
		{0, -1, 1, 0, false},
		{0, 1, -1, 0, false},
	} {
		got, ok := AddWeighted(tc.acc, tc.d, tc.w)
		if got != tc.want || ok != tc.ok {
			t.Errorf("AddWeighted(%d, %d, %d) = %d, %v; want %d, %v", tc.acc, tc.d, tc.w, got, ok, tc.want, tc.ok)
		}
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	cases := []float64{0, 1e-9, 1e-6, 0.001, 1, 1234.567}
	for _, s := range cases {
		d := FromSeconds(s)
		got := d.Seconds()
		if math.Abs(got-s) > 1e-9 {
			t.Errorf("FromSeconds(%g).Seconds() = %g", s, got)
		}
	}
}

func TestFromSecondsClamps(t *testing.T) {
	if FromSeconds(math.NaN()) != 0 {
		t.Error("NaN should clamp to 0")
	}
	if FromSeconds(-5) != 0 {
		t.Error("negative should clamp to 0")
	}
	if FromSeconds(math.Inf(1)) != Duration(math.MaxInt64) {
		t.Error("+Inf should clamp to max")
	}
	if FromSeconds(1e300) != Duration(math.MaxInt64) {
		t.Error("overflow should clamp to max")
	}
}

func TestMaxMin(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max wrong")
	}
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min wrong")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.5us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{-1, "-1ns"},
		{math.MaxInt64, "9.22337e+09s"},
		// -MinInt64 overflows back to MinInt64: String must not
		// recurse on it.
		{math.MinInt64, "-9.22337e+09s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := (-Duration(500)).String(); got != "-500ns" {
		t.Errorf("negative: got %q", got)
	}
	if got := Time(math.MinInt64).String(); got != "-9.22337e+09s" {
		t.Errorf("Time(MinInt64).String() = %q", got)
	}
}

// Property: Max is commutative and idempotent; Add/Sub are inverses.
func TestQuickProperties(t *testing.T) {
	if err := quick.Check(func(a, b int64) bool {
		x, y := Time(a%1e15), Time(b%1e15)
		if Max(x, y) != Max(y, x) {
			return false
		}
		if Max(x, x) != x {
			return false
		}
		return x.Add(Duration(y)).Sub(x) == Duration(y)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestInfinityOrdering(t *testing.T) {
	if Infinity <= Time(1e18) {
		t.Error("Infinity should exceed any reachable clock")
	}
}
