package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// TestRunDeterministic runs a small full-sharing simulation twice under
// the event kernel and the tick reference and byte-compares the
// serialized metrics. Any map-iteration-order or wall-clock leak
// anywhere in the pipeline shows up here as a diff, and the final
// cross-loop comparison pins the event kernel's results to the tick
// reference's byte for byte.
// CI runs this under -tags=invariants so the runtime checks are live.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	base, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.ShareDWT, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}

	serialize := func(l sim.Loop) []byte {
		t.Helper()
		res, err := l.Run(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}

	outputs := map[string][]byte{}
	for _, l := range sim.Loops {
		t.Run(l.Name, func(t *testing.T) {
			js1, js2 := serialize(l), serialize(l)
			if !bytes.Equal(js1, js2) {
				t.Errorf("JSON output differs between identical runs:\nfirst:  %s\nsecond: %s", js1, js2)
			}
			outputs[l.Name] = js1
		})
	}
	if tick, event := outputs["tick"], outputs["event"]; !bytes.Equal(tick, event) {
		t.Errorf("JSON output differs across kernels:\ntick:  %s\nevent: %s", tick, event)
	}
}
