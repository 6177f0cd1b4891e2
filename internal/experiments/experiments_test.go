package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

func tinyRunner() *Runner {
	return NewRunner(WithScale(workloads.ScaleTiny), WithQuadSample(4), WithSeed(1))
}

func TestRunnerCachesIdealAndDualRuns(t *testing.T) {
	r := tinyRunner()
	a, err := r.Ideal("ncf")
	if err != nil {
		t.Fatal(err)
	}
	n := r.Simulations()
	b, err := r.Ideal("ncf")
	if err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != n {
		t.Error("second Ideal() re-simulated")
	}
	if a.Cycles != b.Cycles {
		t.Error("cached result differs")
	}

	if _, err := r.Dual("ncf", "ncf", sim.ShareDWT); err != nil {
		t.Fatal(err)
	}
	n = r.Simulations()
	if _, err := r.Dual("ncf", "ncf", sim.ShareDWT); err != nil {
		t.Fatal(err)
	}
	if r.Simulations() != n {
		t.Error("second Dual() re-simulated")
	}
	if _, err := r.Dual("ncf", "ncf", sim.Static); err != nil {
		t.Fatal(err)
	}
	if r.Simulations() == n {
		t.Error("different level should simulate")
	}
}

func TestDualMixesEnumerates36(t *testing.T) {
	mixes := Mixes(workloads.Names(), 2, 0, 0)
	if len(mixes) != 36 {
		t.Fatalf("dual mixes = %d, want 36 (M(8,2))", len(mixes))
	}
	seen := map[string]bool{}
	for _, m := range mixes {
		key := strings.Join(m, "+")
		if len(m) != 2 || seen[key] {
			t.Errorf("malformed or duplicate mix %v", m)
		}
		seen[key] = true
	}
}

func TestQuadMixesSampling(t *testing.T) {
	names := workloads.Names()
	all := QuadMixes(names, 0)
	if len(all) != 330 {
		t.Fatalf("quad mixes = %d, want 330 (M(8,4))", len(all))
	}
	// Stride 330/40 = 8 keeps mixes 0, 8, ..., 328: 42 of them, the
	// count Fig 5 prints.
	sampled := QuadMixes(names, 40)
	if len(sampled) != 42 {
		t.Errorf("sampled %d mixes for target 40, want 42", len(sampled))
	}
	for _, m := range sampled {
		if len(m) != 4 {
			t.Fatalf("mix size %d", len(m))
		}
	}
}

func TestBurstinessExperiment(t *testing.T) {
	r := tinyRunner()
	res, err := Burstiness(r, "ncf")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rates) == 0 || res.Peak <= 0 {
		t.Fatalf("burstiness: %+v", res)
	}
	// The paper's premise: requests are bursty, so the peak rate is
	// well above the mean (Fig 2b).
	if res.Peak < 2*res.Mean {
		t.Errorf("peak %.3f not clearly above mean %.3f", res.Peak, res.Mean)
	}
	if res.String() == "" {
		t.Error("empty description")
	}
}

func TestBWPartitionSchemes(t *testing.T) {
	schemes := BWPartitionSchemes()
	if len(schemes) != 6 {
		t.Fatalf("schemes = %d", len(schemes))
	}
	for _, s := range schemes[:5] {
		if s.Slices[0]+s.Slices[1] != 8 {
			t.Errorf("scheme %s does not sum to 8 slices", s.Name)
		}
	}
	if schemes[5].Name != "dynamic" || schemes[5].Slices != [2]int{} {
		t.Errorf("last scheme: %+v", schemes[5])
	}
}

func TestPTWPartitionSchemes(t *testing.T) {
	schemes := PTWPartitionSchemes(8)
	if len(schemes) != 6 {
		t.Fatalf("schemes: %v", schemes)
	}
	for _, s := range schemes[:5] {
		if s.Split[0]+s.Split[1] != 8 {
			t.Errorf("scheme %s splits to %v", s.Name, s.Split)
		}
	}
	// A 4-walker pool still produces a ladder plus dynamic.
	small := PTWPartitionSchemes(4)
	var names []string
	for _, s := range small {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, " "); got != "1:3 2:2 3:1 dynamic" {
		t.Fatalf("4-walker schemes = %s, want 1:3 2:2 3:1 dynamic", got)
	}
	for _, s := range small[:len(small)-1] {
		if s.Split[0]+s.Split[1] != 4 {
			t.Errorf("small scheme %s splits to %v", s.Name, s.Split)
		}
		if s.Split[0] < 1 || s.Split[1] < 1 {
			t.Errorf("scheme %s leaves a core with no walker", s.Name)
		}
	}
}

func TestBandwidthTimelineExperiment(t *testing.T) {
	r := tinyRunner()
	res, err := BandwidthTimeline(r, "ncf", "ncf")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sum) == 0 {
		t.Fatal("no timeline windows")
	}
	for i := range res.Sum {
		a, b := 0.0, 0.0
		if i < len(res.UtilA) {
			a = res.UtilA[i]
		}
		if i < len(res.UtilB) {
			b = res.UtilB[i]
		}
		if res.Sum[i] != a+b {
			t.Fatalf("window %d: sum %v != %v + %v", i, res.Sum[i], a, b)
		}
	}
}

func TestRunnerDefaults(t *testing.T) {
	r := NewRunner()
	if r.Scale() != workloads.ScaleTiny {
		t.Errorf("default scale: %v", r.Scale())
	}
	if r.Workers() <= 0 {
		t.Errorf("default workers: %d", r.Workers())
	}
}

// TestSharingGridScore pins the grid's bookkeeping without simulating:
// cells enumerate mix-major x level-minor, Ideals lists each workload
// once in first-appearance order, Score normalizes every core's cycles
// to its workload's Ideal, and malformed inputs are errors rather than
// partial results.
func TestSharingGridScore(t *testing.T) {
	g := SharingGrid{
		Cores:  2,
		Levels: []sim.Sharing{sim.Static, sim.ShareDWT},
		Mixes:  [][]string{{"ncf", "gpt2"}, {"gpt2", "res"}},
	}
	if mix, lv := g.Cell(1); mix[0] != "ncf" || lv != sim.ShareDWT {
		t.Errorf("cell 1 = %v %s, want [ncf gpt2] +dwt", mix, lv)
	}
	if mix, lv := g.Cell(2); mix[0] != "gpt2" || lv != sim.Static {
		t.Errorf("cell 2 = %v %s, want [gpt2 res] static", mix, lv)
	}
	if got := g.Ideals(); len(got) != 3 || got[0] != "ncf" || got[1] != "gpt2" || got[2] != "res" {
		t.Errorf("Ideals = %v, want [ncf gpt2 res]", got)
	}

	ideal := map[string]int64{"ncf": 100, "gpt2": 200, "res": 400}
	cells := [][]int64{{200, 400}, {100, 200}, {400, 800}, {200, 400}}
	res, err := g.Score(cells, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Mixes[sim.Static]); n != 2 {
		t.Fatalf("%d static mixes, want 2", n)
	}
	if m := res.Mixes[sim.ShareDWT][1]; m.Speedups[0] != 1 || m.Speedups[1] != 1 || m.Geomean != 1 {
		t.Errorf("gpt2+res at +dwt scored %+v, want speedups 1 and 1", m)
	}
	if m := res.Mixes[sim.Static][0]; m.Speedups[0] != 0.5 || m.Speedups[1] != 0.5 {
		t.Errorf("ncf+gpt2 static scored %+v, want speedups 0.5 and 0.5", m)
	}

	if _, err := g.Score(cells[:3], ideal); err == nil {
		t.Error("Score accepted 3 cells for a 4-cell grid")
	}
	if _, err := g.Score([][]int64{{1}, {1, 1}, {1, 1}, {1, 1}}, ideal); err == nil {
		t.Error("Score accepted one core's cycles for a two-workload mix")
	}
	if _, err := g.Score(cells, map[string]int64{"ncf": 1, "gpt2": 1}); err == nil {
		t.Error("Score accepted a grid with no Ideal for res")
	}
}

// TestMemoSharesConfigsAcrossStudies: the Runner's memo is keyed by the
// configuration, so two studies that request the same one simulate it
// once — Fig 13's dynamic cell is Fig 4's +DW cell of the same mix, and
// both read the same Ideals — and a repeated study simulates nothing.
func TestMemoSharesConfigsAcrossStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	r := tinyRunner()
	mixes := [][]string{{"ncf", "gpt2"}}
	fig4 := SharingGrid{Cores: 2, Levels: []sim.Sharing{sim.ShareDW}, Mixes: mixes}
	dw, err := fig4.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 3 {
		t.Fatalf("one +DW cell and two Ideals ran %d simulations, want 3", n)
	}
	dynamic, err := ptwGrid(r, []PTWScheme{{Name: "dynamic"}}, mixes).Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 3 {
		t.Errorf("Fig 13's dynamic cell re-simulated: %d simulations, want 3", n)
	}
	if got, want := dynamic.Mixes["dynamic"][0], dw.Mixes[sim.ShareDW][0]; !reflect.DeepEqual(got, want) {
		t.Errorf("dynamic cell scored %+v, +DW cell %+v", got, want)
	}
	if _, err := fig4.Run(r); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ideal("gpt2"); err != nil {
		t.Fatal(err)
	}
	if n := r.Simulations(); n != 3 {
		t.Errorf("repeating the study ran %d simulations, want 3", n)
	}
}
