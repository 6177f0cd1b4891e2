package clock

import (
	"testing"
	"testing/quick"
)

func TestHzString(t *testing.T) {
	cases := []struct {
		f    Hz
		want string
	}{
		{GHz, "1GHz"},
		{2 * GHz, "2GHz"},
		{500 * MHz, "500MHz"},
		{1500 * MHz, "1500MHz"},
		{123, "123Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("Hz(%d).String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestNewDomainPanicsOnNonPositive(t *testing.T) {
	for _, pair := range [][2]Hz{{0, GHz}, {GHz, 0}, {-1, GHz}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDomain(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			NewDomain(pair[0], pair[1])
		}()
	}
}

func TestSameFrequencyIsIdentity(t *testing.T) {
	d := NewDomain(GHz, GHz)
	for _, v := range []int64{0, 1, 7, 1 << 40} {
		if got := d.ToGlobal(Local(v)); got.Int64() != v {
			t.Errorf("ToGlobal(%d) = %d at 1:1", v, got)
		}
		if got := d.LocalFloor(Global(v)); got.Int64() != v {
			t.Errorf("LocalFloor(%d) = %d at 1:1", v, got)
		}
	}
}

func TestFasterLocalClock(t *testing.T) {
	// Core at 2 GHz, global at 1 GHz: 2 local cycles per global cycle.
	d := NewDomain(2*GHz, GHz)
	if got := d.ToGlobal(10); got != 5 {
		t.Errorf("ToGlobal(10) = %d, want 5", got)
	}
	if got := d.LocalFloor(3); got != 6 {
		t.Errorf("LocalFloor(3) = %d, want 6", got)
	}
}

func TestSlowerLocalClockRoundsUp(t *testing.T) {
	// Core at 1 GHz, global at 3 GHz.
	d := NewDomain(GHz, 3*GHz)
	// 1 local cycle spans 3 global cycles.
	if got := d.ToGlobal(1); got != 3 {
		t.Errorf("ToGlobal(1) = %d, want 3", got)
	}
	// 1 global cycle is a fraction of a local cycle: LocalFloor(1) is 0,
	// no full local cycle has elapsed.
	if got := d.LocalFloor(1); got != 0 {
		t.Errorf("LocalFloor(1) = %d, want 0", got)
	}
	if got := d.LocalFloor(3); got != 1 {
		t.Errorf("LocalFloor(3) = %d, want 1", got)
	}
}

func TestNonPositiveCyclesClampToZero(t *testing.T) {
	d := NewDomain(GHz, 2*GHz)
	if got := d.ToGlobal(-5); got != 0 {
		t.Errorf("ToGlobal(-5) = %d, want 0", got)
	}
	if got := d.LocalFloor(-1); got != 0 {
		t.Errorf("LocalFloor(-1) = %d, want 0", got)
	}
}

// Property: by the global cycle ToGlobal(n), at least n local cycles
// have elapsed (round-up semantics guarantee a request is never early),
// the contract a core's completion horizon relies on.
func TestQuickRoundTripNeverEarly(t *testing.T) {
	freqs := []Hz{250 * MHz, 500 * MHz, GHz, 2 * GHz, 3 * GHz}
	f := func(localRaw uint16, fi, gi uint8) bool {
		local := Local(localRaw)
		d := NewDomain(freqs[int(fi)%len(freqs)], freqs[int(gi)%len(freqs)])
		return d.LocalFloor(d.ToGlobal(local)) >= local
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LocalFloor is monotonic non-decreasing in global time.
func TestQuickLocalFloorMonotonic(t *testing.T) {
	d := NewDomain(700*MHz, GHz)
	f := func(aRaw, bRaw uint32) bool {
		a, b := Global(aRaw), Global(bRaw)
		if a > b {
			a, b = b, a
		}
		return d.LocalFloor(a) <= d.LocalFloor(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LocalFloor(g) local cycles fit within g global cycles.
func TestQuickLocalFloorBound(t *testing.T) {
	d := NewDomain(1300*MHz, GHz)
	f := func(gRaw uint32) bool {
		g := Global(gRaw)
		l := d.LocalFloor(g)
		// l local cycles take ToGlobal(l) >= ceil global cycles; floor
		// semantics require they fit in g.
		return d.ToGlobal(l) <= g || l == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
