package sim

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mnpusim/internal/obs"
)

// captureRun executes cfg under the given main loop with a capturing
// sink and returns the result plus the full probe-event stream.
func captureRun(t *testing.T, cfg Config, l Loop) (Result, []obs.Event) {
	t.Helper()
	var events []obs.Event
	cfg.Obs = obs.Func(func(e obs.Event) { events = append(events, e) })
	res, err := l.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s loop: %v", l.Name, err)
	}
	return res, events
}

// TestKernelEventMatchesTick is the event kernel's central proof
// obligation: across every determinism config class, the discrete-event
// kernel must produce a byte-identical Result AND an identical probe
// stream — same events, same cycles, same order — as the tick reference
// (tickref_test.go). Skip windows and loop-iteration counts are
// included: the event kernel processes exactly the cycles the tick
// kernel's fast-forward ticks.
func TestKernelEventMatchesTick(t *testing.T) {
	if testing.Short() {
		t.Skip("several full simulations per config")
	}
	t.Parallel()
	for name, cfg := range skipConfigs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tickRes, tickEv := captureRun(t, cfg, Loops[0])
			evRes, evEv := captureRun(t, cfg, Loops[1])
			if !reflect.DeepEqual(tickRes, evRes) {
				t.Errorf("event kernel changed the result:\ntick:  %+v\nevent: %+v", tickRes, evRes)
			}
			if diff := diffEvents(tickEv, evEv); diff != "" {
				t.Errorf("event kernel changed the probe stream: %s", diff)
			}
		})
	}
}

// diffEvents reports the first divergence between two probe streams, or
// "" if they are identical.
func diffEvents(a, b []obs.Event) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-3)
			s := fmt.Sprintf("first divergence at event %d:\n", i)
			for j := lo; j <= min(i+3, n-1); j++ {
				s += fmt.Sprintf("  [%d] tick=%+v event=%+v\n", j, a[j], b[j])
			}
			return s
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("stream lengths differ: tick=%d event=%d (first %d equal)", len(a), len(b), n)
	}
	return ""
}
