package clock

import "testing"

// edgeDomains is the ratio spread the conversion edge tests run over:
// identity, integer multiples both ways, and incommensurate pairs.
func edgeDomains() map[string]Domain {
	return map[string]Domain{
		"1:1":     NewDomain(GHz, GHz),
		"2:1":     NewDomain(2*GHz, GHz),
		"1:2":     NewDomain(GHz, 2*GHz),
		"7:12":    NewDomain(700*MHz, 1200*MHz),
		"12:7":    NewDomain(1200*MHz, 700*MHz),
		"3:1000":  NewDomain(3*MHz, GHz),
		"941:400": NewDomain(941*MHz, 400*MHz),
	}
}

// TestUnityRatioIsIdentity pins the 1:1 case: every conversion must be
// the identity, with no rounding drift.
func TestUnityRatioIsIdentity(t *testing.T) {
	d := NewDomain(GHz, GHz)
	for _, n := range []int64{0, 1, 2, 3, 999, 1 << 40} {
		if g := d.ToGlobal(Local(n)); g.Int64() != n {
			t.Errorf("ToGlobal(%d) = %d, want identity", n, g)
		}
		if f := d.LocalFloor(Global(n)); f.Int64() != n {
			t.Errorf("LocalFloor(%d) = %d, want identity", n, f)
		}
	}
}

// TestNonDivisibleRatioExact pins exact conversion values for the
// 700MHz/1200MHz pair, which reduces to the non-divisible ratio 7:12.
func TestNonDivisibleRatioExact(t *testing.T) {
	d := NewDomain(700*MHz, 1200*MHz)
	toGlobal := func(n int64) int64 { return d.ToGlobal(Local(n)).Int64() }
	localFloor := func(n int64) int64 { return d.LocalFloor(Global(n)).Int64() }
	cases := []struct {
		name string
		fn   func(int64) int64
		in   int64
		want int64
	}{
		{"ToGlobal", toGlobal, 1, 2},      // ceil(12/7)
		{"ToGlobal", toGlobal, 7, 12},     // exact multiple
		{"ToGlobal", toGlobal, 8, 14},     // ceil(96/7)
		{"LocalFloor", localFloor, 11, 6}, // floor(77/12)
		{"LocalFloor", localFloor, 12, 7}, // exact multiple
		{"LocalFloor", localFloor, 1, 0},  // floor(7/12)
	}
	for _, c := range cases {
		if got := c.fn(c.in); got != c.want {
			t.Errorf("%s(%d) = %d, want %d", c.name, c.in, got, c.want)
		}
	}
}

// TestZeroAndNegativeCycles pins the clamp-to-zero contract at and
// below the origin for every ratio shape.
func TestZeroAndNegativeCycles(t *testing.T) {
	for name, d := range edgeDomains() {
		for _, n := range []int64{0, -1, -1000} {
			if g := d.ToGlobal(Local(n)); g != 0 {
				t.Errorf("%s: ToGlobal(%d) = %d, want 0", name, n, g)
			}
			if f := d.LocalFloor(Global(n)); f != 0 {
				t.Errorf("%s: LocalFloor(%d) = %d, want 0", name, n, f)
			}
		}
	}
}

// TestRoundTripNeverEarly asserts the directional-rounding contract:
// by the global cycle ToGlobal(n), at least n local cycles have
// elapsed, so a synchronized event can never fire before its cause.
func TestRoundTripNeverEarly(t *testing.T) {
	for name, d := range edgeDomains() {
		for n := int64(1); n <= 500; n++ {
			if rt := d.LocalFloor(d.ToGlobal(Local(n))); rt.Int64() < n {
				t.Fatalf("%s: LocalFloor(ToGlobal(%d)) = %d, arrived early", name, n, rt)
			}
		}
	}
}

// TestSkipBoundaryOffByOne pins the event-skip boundary at the clock
// layer: the first global tick T whose window covers local cycle L
// (LocalFloor(T+1) >= L) is exactly ToGlobal(L)-1. The event-skip
// protocol in internal/sim depends on this identity; regressing it
// reintroduces the one-tick-late completion bug.
func TestSkipBoundaryOffByOne(t *testing.T) {
	for name, d := range edgeDomains() {
		for L := Local(1); L <= 300; L++ {
			want := Global(-1)
			for T := Global(0); ; T++ {
				if d.LocalFloor(T+1) >= L {
					want = T
					break
				}
			}
			if got := d.ToGlobal(L) - 1; got != want {
				t.Fatalf("%s: local %d: ToGlobal(L)-1 = %d, first covering tick = %d", name, L, got, want)
			}
		}
	}
}
