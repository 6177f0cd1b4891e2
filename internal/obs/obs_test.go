package obs

import (
	"strings"
	"testing"
)

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

// TestTeeFlattensNestedTees checks that a tee of tees is one flat tee:
// each event reaches every sink once, in argument order with nested
// sinks in their tee's place, nil sinks are dropped at every level, and
// a nest holding one live sink comes back as that sink.
func TestTeeFlattensNestedTees(t *testing.T) {
	var order []string
	sink := func(name string) Sink { return Func(func(Event) { order = append(order, name) }) }
	inner := Tee(sink("a"), nil, sink("b"))
	got := Tee(nil, inner, sink("c"), Tee(sink("d"), Tee(sink("e"), sink("f"))), nil)
	flat, ok := got.(*tee)
	if !ok {
		t.Fatalf("Tee of tees is %T, want *tee", got)
	}
	for _, s := range flat.sinks {
		if _, nested := s.(*tee); nested {
			t.Fatalf("a nested tee survived: %v", flat.sinks)
		}
	}
	got.Emit(Event{})
	if want := "a b c d e f"; strings.Join(order, " ") != want {
		t.Errorf("one event reached %v, want %s", order, want)
	}

	single := sink("only")
	if got := Tee(nil, Tee(nil, single), nil); got == nil {
		t.Fatal("a nest holding one live sink is nil")
	} else if _, ok := got.(Func); !ok {
		t.Errorf("a nest holding one live sink is %T, want the sink unwrapped", got)
	}
}
