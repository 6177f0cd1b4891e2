package sim_test

import (
	"testing"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	cfg := tinyDual(t)
	a, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("fingerprint not stable: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Errorf("fingerprint %q is not hex SHA-256", a)
	}

	// Any result-determining change must move the key.
	for name, mutate := range map[string]func(*sim.Config){
		"sharing":     func(c *sim.Config) { c.Sharing = sim.ShareDWT },
		"translation": func(c *sim.Config) { c.NoTranslation = true },
		"page size":   func(c *sim.Config) { c.PageSize *= 2 },
		"cycle bound": func(c *sim.Config) { c.MaxGlobalCycles = 12345 },
	} {
		mut := tinyDual(t)
		mutate(&mut)
		got, err := mut.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == a {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}

	// Hooks never affect results, so they must not affect the key
	// either: those configs share one cache slot.
	hooked := tinyDual(t)
	hooked.Metrics = obs.NewRegistry()
	hooked.HostProf = hostprof.New()
	hooked.Obs = obs.Func(func(obs.Event) {})
	got, err := hooked.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Errorf("observation hooks changed the fingerprint: %s vs %s", got, a)
	}
}

func TestFingerprintDiffersAcrossWorkloads(t *testing.T) {
	a, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, "ncf", "gpt2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, "ncf", "dlrm")
	if err != nil {
		t.Fatal(err)
	}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Error("different workload mixes share a fingerprint")
	}
}
