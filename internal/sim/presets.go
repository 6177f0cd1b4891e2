package sim

import (
	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/mmu"
	"mnpusim/internal/model"
	"mnpusim/internal/npu"
	"mnpusim/internal/workloads"
)

// SystemParams are the scale-dependent hardware amounts *per NPU core*
// (Table 2 lists them "per NPU"); an N-core system multiplies the
// channel count and, under sharing, merges TLB and walker capacity.
//
// The scaled presets keep each core's machine balance (peak MACs per
// cycle over peak bytes per cycle) in the regime of the paper's
// cloud-scale system, so each workload's compute-vs-memory character is
// preserved as the system shrinks: compute-lean CNNs stay narrow under
// contention, RNN and recommendation models stay bandwidth- and
// translation-bound.
type SystemParams struct {
	Arch            npu.ArchConfig
	ChannelsPerCore int
	// BL2 stretches per-channel burst occupancy to scale bandwidth
	// down (see dram.HBM2Scaled).
	BL2             int
	TLBEntries      int
	TLBAssoc        int
	PTWs            int
	WalkLatency     int // per level, global cycles
	TLBPorts        int
	MaxPendingWalks int
	PageSize        mmu.PageSize
	// PageLadder holds the scale's stand-ins for the paper's 4KB,
	// 64KB, and 1MB pages (same 4/3/2-level walk depths), used by the
	// page-size experiments (Figs 15-16).
	PageLadder      [3]mmu.PageSize
	PhysBytes       uint64
	MaxGlobalCycles clock.Global
}

// DRAMFor builds the total DRAM device for a system of n cores.
func (p SystemParams) DRAMFor(cores int) dram.Config {
	return dram.HBM2Scaled(cores*p.ChannelsPerCore, p.BL2)
}

// PerCoreBandwidth returns the peak per-core bandwidth in bytes/cycle.
func (p SystemParams) PerCoreBandwidth() float64 {
	return float64(p.ChannelsPerCore) * 64 / float64(p.BL2)
}

// ParamsFor returns the per-core hardware amounts for a scale level.
//
// ScalePaper matches Table 2: a TPUv4-like core (128x128, 36 MB SPM),
// 128 GB/s per NPU (4 HBM2 channels at 32 GB/s), 2048 TLB entries
// (8-way), 8 walkers, 4 GB HBM capacity. ScaleTiny shrinks the array to
// 16x16 (64x fewer PEs) and bandwidth to 16 B/cycle (8x less per
// channel, 2 channels), so tiles still span multiple pages and bursts
// still saturate walkers and channels, at ~1000x less simulated work.
func ParamsFor(s workloads.Scale) SystemParams {
	switch s {
	case workloads.ScalePaper:
		return SystemParams{
			Arch:            npu.TPUv4(),
			ChannelsPerCore: 4,
			BL2:             2,
			TLBEntries:      2048,
			TLBAssoc:        8,
			PTWs:            8,
			WalkLatency:     100,
			TLBPorts:        4,
			MaxPendingWalks: 128,
			PageSize:        mmu.Page4K,
			PageLadder:      [3]mmu.PageSize{mmu.Page4K, mmu.Page64K, mmu.Page1M},
			PhysBytes:       4 << 30,
			MaxGlobalCycles: 1 << 42,
		}
	case workloads.ScaleSmall:
		return SystemParams{
			Arch:            npu.SmallCore(),
			ChannelsPerCore: 2,
			BL2:             4, // 2 ch x 16 B/cyc = 32 B/cyc -> 1024 PEs / 32 = balance 32
			TLBEntries:      64,
			TLBAssoc:        8,
			PTWs:            4,
			WalkLatency:     75,
			TLBPorts:        4,
			MaxPendingWalks: 32,
			PageSize:        2 << 10,
			PageLadder:      [3]mmu.PageSize{2 << 10, 32 << 10, 512 << 10},
			PhysBytes:       512 << 20,
			MaxGlobalCycles: 4_000_000_000,
		}
	default: // ScaleTiny
		return SystemParams{
			Arch:            npu.TinyCore(),
			ChannelsPerCore: 2,
			BL2:             16, // 2 ch x 4 B/cyc = 8 B/cyc -> 256 PEs / 8 = balance 32
			TLBEntries:      32,
			TLBAssoc:        8,
			PTWs:            2,
			WalkLatency:     75,
			TLBPorts:        4,
			MaxPendingWalks: 16,
			PageSize:        2 << 10,
			PageLadder:      [3]mmu.PageSize{2 << 10, 32 << 10, 512 << 10},
			PhysBytes:       256 << 20,
			MaxGlobalCycles: 1_000_000_000,
		}
	}
}

// NewConfig assembles a Config for the given networks (one per core) at
// the given scale and sharing level.
func NewConfig(scale workloads.Scale, sharing Sharing, nets ...model.Network) Config {
	p := ParamsFor(scale)
	n := len(nets)
	arch := make([]npu.ArchConfig, n)
	for i := range arch {
		arch[i] = p.Arch
	}
	return Config{
		Arch:                arch,
		Nets:                nets,
		Sharing:             sharing,
		DRAM:                p.DRAMFor(n),
		PageSize:            p.PageSize,
		WalkLevels:          4, // the 4KB-page depth; scaled pages stand in for 4KB
		TLBEntriesPerCore:   p.TLBEntries,
		TLBAssoc:            p.TLBAssoc,
		PTWPerCore:          p.PTWs,
		WalkLatencyPerLevel: p.WalkLatency,
		TLBPorts:            p.TLBPorts,
		MaxPendingWalks:     p.MaxPendingWalks,
		PhysBytesPerCore:    p.PhysBytes,
		MaxGlobalCycles:     p.MaxGlobalCycles,
	}
}

// NewWorkloadConfig is NewConfig for named benchmark workloads.
func NewWorkloadConfig(scale workloads.Scale, sharing Sharing, names ...string) (Config, error) {
	nets := make([]model.Network, len(names))
	for i, name := range names {
		w, err := workloads.ByName(name, scale)
		if err != nil {
			return Config{}, err
		}
		nets[i] = w.Net
	}
	return NewConfig(scale, sharing, nets...), nil
}

// NewIdealConfig builds workload w's standard Ideal, the baseline every
// speedup in the paper is normalized to (§4.1.3): the (w, w) static
// dual-core system reduced to core 0 with the whole resource pool.
func NewIdealConfig(scale workloads.Scale, w string) (Config, error) {
	cfg, err := NewWorkloadConfig(scale, Static, w, w)
	if err != nil {
		return Config{}, err
	}
	return IdealFor(cfg, 0), nil
}
