package obs

import "testing"

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind = %q", Kind(200).String())
	}
}

func TestTeeNilHandling(t *testing.T) {
	if Tee() != nil {
		t.Error("Tee() should be nil")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) should be nil")
	}
	var n int
	f := Func(func(Event) { n++ })
	if got := Tee(nil, f, nil); got == nil {
		t.Fatal("Tee with one live sink is nil")
	} else {
		// A single live sink is returned unwrapped.
		if _, ok := got.(Func); !ok {
			t.Errorf("single sink wrapped: %T", got)
		}
		got.Emit(Event{})
	}
	if n != 1 {
		t.Errorf("single-sink emit count = %d", n)
	}
}

func TestTeeFansOut(t *testing.T) {
	var a, b int
	s := Tee(Func(func(Event) { a++ }), Func(func(Event) { b++ }))
	s.Emit(Event{Kind: KindTLBHit})
	s.Emit(Event{Kind: KindTLBMiss})
	if a != 2 || b != 2 {
		t.Errorf("fan-out counts = %d, %d", a, b)
	}
}
