package sim

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/model"
	"mnpusim/internal/npu"
	"mnpusim/internal/obs"
	"mnpusim/internal/systolic"
	"mnpusim/internal/workloads"
)

// smallNet is a fast two-layer network used by most integration tests.
func smallNet(name string) model.Network {
	return model.Network{Name: name, Layers: []model.Layer{
		{Name: "fc1", Kind: model.FC, M: 32, K: 512, N: 64},
		{Name: "fc2", Kind: model.FC, M: 32, K: 64, N: 32},
	}}
}

// memNet is small but bandwidth-hungry (batch-1 RNN).
func memNet(name string) model.Network {
	return model.Network{Name: name, Layers: []model.Layer{
		{Name: "rnn", Kind: model.RNNCell, Hidden: 96, Input: 96, Repeat: 6},
	}}
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSharingString(t *testing.T) {
	want := map[Sharing]string{Static: "Static", ShareD: "+D", ShareDW: "+DW", ShareDWT: "+DWT", Ideal: "Ideal"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if len(Levels()) != 4 {
		t.Error("Levels() should exclude Ideal")
	}
}

func TestSharingPredicates(t *testing.T) {
	cases := []struct {
		s       Sharing
		d, w, b bool
	}{
		{Static, false, false, false},
		{ShareD, true, false, false},
		{ShareDW, true, true, false},
		{ShareDWT, true, true, true},
		{Ideal, true, true, true},
	}
	for _, c := range cases {
		if c.s.SharesDRAM() != c.d || c.s.SharesPTW() != c.w || c.s.SharesTLB() != c.b {
			t.Errorf("%s predicates wrong", c.s)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"), smallNet("b"))
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"no nets", func(c *Config) { c.Nets = nil }},
		{"ideal multi-core", func(c *Config) { c.Sharing = Ideal }},
		{"bad arch", func(c *Config) { c.Arch[0].SPMBytes = 0 }},
		{"bad net", func(c *Config) { c.Nets[0].Layers = nil }},
		{"indivisible static channels", func(c *Config) { c.Sharing = Static; c.DRAM = dram.HBM2(3) }},
		{"partition length", func(c *Config) { c.ChannelPartition = [][]int{{0}} }},
		{"empty partition set", func(c *Config) { c.ChannelPartition = [][]int{{0}, {}} }},
		{"partition channel range", func(c *Config) { c.ChannelPartition = [][]int{{0}, {99}} }},
		{"zero phys", func(c *Config) { c.PhysBytesPerCore = 0 }},
		{"start cycles length", func(c *Config) { c.StartCycles = []clock.Global{1} }},
	}
	for _, m := range mutations {
		cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"), smallNet("b"))
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestChannelSetsByLevel(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, Static, smallNet("a"), smallNet("b"))
	sets := cfg.channelSets()
	if len(sets[0]) != 2 || len(sets[1]) != 2 || sets[0][0] == sets[1][0] {
		t.Errorf("static sets: %v", sets)
	}
	cfg.Sharing = ShareD
	sets = cfg.channelSets()
	if len(sets[0]) != cfg.DRAM.Channels || len(sets[1]) != cfg.DRAM.Channels {
		t.Errorf("shared sets: %v", sets)
	}
	cfg.ChannelPartition = [][]int{{0}, {1, 2, 3}}
	if got := cfg.channelSets(); len(got[1]) != 3 {
		t.Errorf("explicit partition ignored: %v", got)
	}
}

func TestIdealForMergesResources(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, Static, smallNet("a"), smallNet("b"))
	id := IdealFor(cfg, 1)
	if id.Cores() != 1 || id.Nets[0].Name != "b" {
		t.Errorf("ideal: %d cores, net %s", id.Cores(), id.Nets[0].Name)
	}
	if id.TLBEntriesPerCore != 2*cfg.TLBEntriesPerCore || id.PTWPerCore != 2*cfg.PTWPerCore {
		t.Error("ideal did not merge TLB/PTW capacity")
	}
	if id.Sharing != Ideal {
		t.Error("ideal sharing level")
	}
	if err := id.Validate(); err != nil {
		t.Errorf("ideal config invalid: %v", err)
	}
}

func TestRunSingleCoreCompletes(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"))
	r := mustRun(t, cfg)
	c := r.Cores[0]
	if c.Cycles <= 0 || c.Utilization <= 0 || c.Utilization > 1 {
		t.Errorf("core result: %+v", c)
	}
	if c.TrafficBytes <= 0 || c.FootprintBytes <= 0 {
		t.Error("traffic/footprint not recorded")
	}
	if c.MMU.Walks == 0 {
		t.Error("no page walks on a fresh address space")
	}
	if len(c.LayerEndCycles) != 2 {
		t.Errorf("layer cycles: %v", c.LayerEndCycles)
	}
	if r.GlobalCycles < c.Cycles {
		t.Error("global clock behind local clock at 1:1")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"), memNet("b"))
	r1 := mustRun(t, cfg)
	r2 := mustRun(t, cfg)
	for i := range r1.Cores {
		if r1.Cores[i].Cycles != r2.Cores[i].Cycles {
			t.Errorf("core %d nondeterministic: %d vs %d", i, r1.Cores[i].Cycles, r2.Cores[i].Cycles)
		}
	}
}

func TestCoRunnerSlowerThanIdeal(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, memNet("a"), memNet("b"))
	ideal, err := RunIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := mustRun(t, cfg)
	for i := range shared.Cores {
		if shared.Cores[i].Cycles < ideal[i].Cycles {
			t.Errorf("core %d faster with contention: %d vs ideal %d",
				i, shared.Cores[i].Cycles, ideal[i].Cycles)
		}
	}
	if shared.Cores[0].Cycles == ideal[0].Cycles {
		t.Error("two bandwidth-bound co-runners should contend")
	}
}

func TestStaticPartitionSlowerThanIdeal(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, Static, memNet("a"), memNet("b"))
	ideal, err := RunIdeal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static := mustRun(t, cfg)
	// Halved bandwidth must slow a bandwidth-bound workload noticeably.
	if static.Cores[0].Cycles <= ideal[0].Cycles*11/10 {
		t.Errorf("static %d vs ideal %d: expected >10%% slowdown",
			static.Cores[0].Cycles, ideal[0].Cycles)
	}
}

func TestNoTranslationFasterAndWalkFree(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, memNet("a"))
	with := mustRun(t, cfg)
	cfg.NoTranslation = true
	without := mustRun(t, cfg)
	if without.Cores[0].MMU.Walks != 0 {
		t.Error("translation-disabled run performed walks")
	}
	if without.Cores[0].Cycles >= with.Cores[0].Cycles {
		t.Errorf("removing translation did not speed up: %d vs %d",
			without.Cores[0].Cycles, with.Cores[0].Cycles)
	}
}

func TestLargerPagesReduceWalks(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, memNet("a"))
	base := mustRun(t, cfg)
	big := cfg
	big.PageSize = ParamsFor(workloads.ScaleTiny).PageLadder[1]
	big.WalkLevels = 3
	bigRes := mustRun(t, big)
	if bigRes.Cores[0].MMU.Walks*4 > base.Cores[0].MMU.Walks {
		t.Errorf("16x pages should cut walks ~16x: %d vs %d",
			bigRes.Cores[0].MMU.Walks, base.Cores[0].MMU.Walks)
	}
	if bigRes.Cores[0].Cycles > base.Cores[0].Cycles {
		t.Error("larger pages slowed the run")
	}
}

func TestStartCyclesDelayExecution(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"), smallNet("b"))
	base := mustRun(t, cfg)
	cfg.StartCycles = []clock.Global{0, 50_000}
	delayed := mustRun(t, cfg)
	if delayed.GlobalCycles < base.GlobalCycles+40_000 {
		t.Errorf("start delay not applied: %d vs %d", delayed.GlobalCycles, base.GlobalCycles)
	}
}

func TestWalkerPartitionBoundsApply(t *testing.T) {
	// Static 1:3 walker split starves core 0's translation relative to
	// 3:1 for a translation-heavy workload.
	run := func(min0, min1 int) int64 {
		cfg := NewConfig(workloads.ScaleTiny, ShareDW, memNet("a"), memNet("b"))
		cfg.WalkerMin = []int{min0, min1}
		cfg.WalkerMax = []int{min0, min1}
		return mustRun(t, cfg).Cores[0].Cycles
	}
	few := run(1, 3)
	many := run(3, 1)
	if many >= few {
		t.Errorf("more walkers should not be slower: 1-walker=%d 3-walker=%d", few, many)
	}
}

// TestTransferAndIssueHooks observes completed bursts as KindTransfer
// probe events and DMA issues as KindDMAIssue events, and checks the
// probe stream's bytes match the Result's per-core accounting.
func TestTransferAndIssueHooks(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"))
	var transfers, issues int
	var moved int64
	cfg.Obs = obs.Func(func(e obs.Event) {
		switch e.Kind {
		case obs.KindTransfer:
			transfers++
			moved += e.A
		case obs.KindDMAIssue:
			issues++
		}
	})
	r := mustRun(t, cfg)
	if transfers == 0 || issues == 0 {
		t.Errorf("hooks not invoked: transfers=%d issues=%d", transfers, issues)
	}
	if r.Cores[0].DataBytes <= 0 {
		t.Error("per-core data bytes not accounted")
	}
	if want := r.Cores[0].DataBytes + r.Cores[0].PTBytes; moved != want {
		t.Errorf("transfer events moved %d bytes, Result accounts %d", moved, want)
	}
}

func TestMaxGlobalCyclesGuards(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"))
	cfg.MaxGlobalCycles = 10
	if _, err := Run(cfg); err == nil {
		t.Error("runaway guard did not trip")
	}
}

func TestDualCoreStatsAttribution(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("left"), memNet("right"))
	r := mustRun(t, cfg)
	if r.Cores[0].Net != "left" || r.Cores[1].Net != "right" {
		t.Errorf("net attribution: %s %s", r.Cores[0].Net, r.Cores[1].Net)
	}
	if r.Cores[0].TrafficBytes == r.Cores[1].TrafficBytes {
		t.Error("different nets should have different traffic")
	}
}

func TestQuadCoreRuns(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT,
		smallNet("a"), smallNet("b"), memNet("c"), smallNet("d"))
	r := mustRun(t, cfg)
	if len(r.Cores) != 4 {
		t.Fatalf("cores = %d", len(r.Cores))
	}
	for i, c := range r.Cores {
		if c.Cycles <= 0 {
			t.Errorf("core %d produced no cycles", i)
		}
	}
}

func TestDRAMBackedWalksRun(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, memNet("a"))
	cfg.DRAMBackedWalks = true
	r := mustRun(t, cfg)
	if r.Cores[0].PTBytes == 0 {
		t.Error("DRAM-backed walks produced no page-table traffic")
	}
	cfg.DRAMBackedWalks = false
	r2 := mustRun(t, cfg)
	if r2.Cores[0].PTBytes != 0 {
		t.Error("fixed-latency walks should not touch DRAM")
	}
}

func TestParamsForAllScales(t *testing.T) {
	for _, s := range []workloads.Scale{workloads.ScaleTiny, workloads.ScaleSmall, workloads.ScalePaper} {
		p := ParamsFor(s)
		if err := p.Arch.Validate(); err != nil {
			t.Errorf("%s arch: %v", s, err)
		}
		if err := p.DRAMFor(2).Validate(); err != nil {
			t.Errorf("%s dram: %v", s, err)
		}
		if p.PerCoreBandwidth() <= 0 {
			t.Errorf("%s bandwidth", s)
		}
		// Machine balance stays in a fixed band across scales.
		balance := float64(p.Arch.Array.PEs()) / p.PerCoreBandwidth()
		if balance < 16 || balance > 192 {
			t.Errorf("%s balance = %.0f, outside [16,192]", s, balance)
		}
		if p.PageLadder[0] >= p.PageLadder[1] || p.PageLadder[1] >= p.PageLadder[2] {
			t.Errorf("%s page ladder not increasing: %v", s, p.PageLadder)
		}
	}
	// Paper scale must match Table 2.
	p := ParamsFor(workloads.ScalePaper)
	if p.ChannelsPerCore*32 != 128 { // 4 channels x 32 GB/s
		t.Error("paper per-NPU bandwidth != 128 GB/s")
	}
	if p.TLBEntries != 2048 || p.PTWs != 8 || p.TLBAssoc != 8 {
		t.Errorf("paper MMU amounts: %+v", p)
	}
}

func TestNewWorkloadConfigErrors(t *testing.T) {
	if _, err := NewWorkloadConfig(workloads.ScaleTiny, Static, "nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, Static, "ncf", "ncf")
	if err != nil || cfg.Cores() != 2 {
		t.Errorf("workload config: %v", err)
	}
}

func TestBenchmarkWorkloadRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, ShareDWT, "ncf")
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, cfg)
	if r.Cores[0].Cycles <= 0 {
		t.Error("ncf produced no cycles")
	}
}

func TestDataflowAffectsTiming(t *testing.T) {
	// A batch-1 RNN is much slower under weight-stationary (weights
	// reload per fold with nothing to amortize over).
	base := NewConfig(workloads.ScaleTiny, ShareDWT, memNet("a"))
	osRes := mustRun(t, base)
	ws := base
	ws.Arch = append([]npu.ArchConfig(nil), base.Arch...)
	ws.Arch[0].Dataflow = systolic.WeightStationary
	wsRes := mustRun(t, ws)
	if wsRes.Cores[0].Cycles <= osRes.Cores[0].Cycles {
		t.Errorf("WS should be slower on batch-1 RNN: os=%d ws=%d",
			osRes.Cores[0].Cycles, wsRes.Cores[0].Cycles)
	}
}

func TestDWSWalkerStealingRuns(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDW, memNet("a"), smallNet("b"))
	cfg.DWSWalkerStealing = true
	r := mustRun(t, cfg)
	if r.Cores[0].MMU.Walks == 0 {
		t.Error("no walks under DWS")
	}
	// Determinism holds under the stealing policy too.
	r2 := mustRun(t, cfg)
	if r.Cores[0].Cycles != r2.Cores[0].Cycles {
		t.Error("DWS run nondeterministic")
	}
}

func TestDRAMEnergyAccounting(t *testing.T) {
	cfg := NewConfig(workloads.ScaleTiny, ShareDWT, smallNet("a"))
	r := mustRun(t, cfg)
	e := r.DRAMEnergy(dram.DefaultHBM2Energy())
	if e.TotalPJ() <= 0 || e.ReadPJ <= 0 || e.BackgroundPJ <= 0 {
		t.Errorf("energy breakdown: %+v", e)
	}
	// Moving the same data over a longer run costs more background
	// energy: static partitioning of a solo run cannot cost less total
	// energy than... simply check per-bit is in a sane band.
	perBit := r.DRAM.EnergyPerBit(dram.DefaultHBM2Energy(), r.GlobalCycles)
	if perBit <= 0 {
		t.Errorf("pJ/bit = %v", perBit)
	}
}
