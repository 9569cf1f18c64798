package model

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	tests := []struct {
		name string
		d, e Duration
		want int64
	}{
		{"zero numerator", 0, 5, 0},
		{"negative numerator", -3, 5, 0},
		{"exact", 10, 5, 2},
		{"round up", 11, 5, 3},
		{"one under", 9, 5, 2},
		{"unit divisor", 7, 1, 7},
		{"numerator smaller", 1, 100, 1},
		{"large values", 1 << 40, 3, ((1 << 40) + 2) / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := CeilDiv(tt.d, tt.e); got != tt.want {
				t.Errorf("CeilDiv(%d, %d) = %d, want %d", tt.d, tt.e, got, tt.want)
			}
		})
	}
}

func TestCeilDivPanicsOnNonPositiveDivisor(t *testing.T) {
	for _, e := range []Duration{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CeilDiv(1, %d) did not panic", e)
				}
			}()
			CeilDiv(1, e)
		}()
	}
}

func TestCeilDivProperty(t *testing.T) {
	// ceil(d/e) is the least k with k*e >= d, for d >= 0, e > 0 — over the
	// full non-negative int64 range, checked in exact big-integer
	// arithmetic so products past MaxInt64 cannot wrap the check itself.
	// The shifts spread both operands over every magnitude.
	f := func(d, e int64, sd, se uint8) bool {
		d = (d & math.MaxInt64) >> (sd % 63)
		e = (e & math.MaxInt64) >> (se % 63)
		if e == 0 {
			e = 1
		}
		k := CeilDiv(Duration(d), Duration(e))
		bd, be := big.NewInt(d), big.NewInt(e)
		hi := new(big.Int).Mul(big.NewInt(k), be)
		lo := new(big.Int).Mul(big.NewInt(k-1), be)
		return k >= 0 && hi.Cmp(bd) >= 0 && (d == 0 && k == 0 || lo.Cmp(bd) < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// The edges where (d+e-1)/e used to wrap negative.
	for _, c := range []struct{ d, e, want int64 }{
		{math.MaxInt64, 1, math.MaxInt64},
		{math.MaxInt64, 2, 1 << 62},
		{math.MaxInt64, math.MaxInt64, 1},
		{math.MaxInt64 - 1, math.MaxInt64, 1},
		{9_000_000_000_000_000_000, 1 << 62, 2},
	} {
		if got := CeilDiv(Duration(c.d), Duration(c.e)); got != c.want {
			t.Errorf("CeilDiv(%d, %d) = %d, want %d", c.d, c.e, got, c.want)
		}
	}
}

func TestMulSatProperty(t *testing.T) {
	// MulSat is the exact product when it lies below MaxInt64 and
	// Infinite otherwise, over the full non-negative range.
	maxDur := big.NewInt(math.MaxInt64)
	f := func(d, k int64, sd, sk uint8) bool {
		d = (d & math.MaxInt64) >> (sd % 63)
		k = (k & math.MaxInt64) >> (sk % 63)
		if d == math.MaxInt64 {
			return Duration(d).MulSat(k) == Infinite
		}
		p := new(big.Int).Mul(big.NewInt(d), big.NewInt(k))
		got := Duration(d).MulSat(k)
		if p.Cmp(maxDur) >= 0 {
			return got == Infinite
		}
		return int64(got) == p.Int64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if got := Time(5).Add(7); got != 12 {
		t.Errorf("Time(5).Add(7) = %v, want 12", got)
	}
	if got := TimeInfinity.Add(1); got != TimeInfinity {
		t.Errorf("TimeInfinity.Add(1) = %v, want TimeInfinity", got)
	}
	if got := Time(1).Add(Infinite); got != TimeInfinity {
		t.Errorf("Time(1).Add(Infinite) = %v, want TimeInfinity", got)
	}
	if got := Time(math.MaxInt64 - 1).Add(10); got != TimeInfinity {
		t.Errorf("near-max add = %v, want TimeInfinity", got)
	}
}

func TestTimeSub(t *testing.T) {
	if got := Time(12).Sub(5); got != 7 {
		t.Errorf("Time(12).Sub(5) = %v, want 7", got)
	}
	if got := TimeInfinity.Sub(5); !got.IsInfinite() {
		t.Errorf("TimeInfinity.Sub(5) = %v, want Infinite", got)
	}
}

func TestDurationAddSat(t *testing.T) {
	if got := Duration(3).AddSat(4); got != 7 {
		t.Errorf("3.AddSat(4) = %v, want 7", got)
	}
	if got := Infinite.AddSat(1); !got.IsInfinite() {
		t.Errorf("Infinite.AddSat(1) = %v, want Infinite", got)
	}
	if got := Duration(math.MaxInt64 - 1).AddSat(5); !got.IsInfinite() {
		t.Errorf("near-max AddSat = %v, want Infinite", got)
	}
}

func TestDurationMulSat(t *testing.T) {
	tests := []struct {
		d    Duration
		k    int64
		want Duration
	}{
		{3, 4, 12},
		{0, 100, 0},
		{100, 0, 0},
		{Infinite, 2, Infinite},
		{math.MaxInt64 / 2, 3, Infinite},
	}
	for _, tt := range tests {
		if got := tt.d.MulSat(tt.k); got != tt.want {
			t.Errorf("%v.MulSat(%d) = %v, want %v", tt.d, tt.k, got, tt.want)
		}
	}
}

func TestDurationString(t *testing.T) {
	if got := Duration(42).String(); got != "42" {
		t.Errorf("Duration(42).String() = %q", got)
	}
	if got := Infinite.String(); got != "inf" {
		t.Errorf("Infinite.String() = %q", got)
	}
	if got := Time(7).String(); got != "7" {
		t.Errorf("Time(7).String() = %q", got)
	}
	if got := TimeInfinity.String(); got != "inf" {
		t.Errorf("TimeInfinity.String() = %q", got)
	}
}

func TestMinMaxHelpers(t *testing.T) {
	if MaxDuration(3, 5) != 5 || MaxDuration(5, 3) != 5 {
		t.Error("MaxDuration wrong")
	}
	if MinDuration(3, 5) != 3 || MinDuration(5, 3) != 3 {
		t.Error("MinDuration wrong")
	}
	if MaxTime(3, 5) != 5 || MinTime(3, 5) != 3 {
		t.Error("MaxTime/MinTime wrong")
	}
}
