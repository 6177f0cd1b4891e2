package sim

import (
	"fmt"

	"mnpusim/internal/clock"
	"mnpusim/internal/dram"
	"mnpusim/internal/mmu"
	"mnpusim/internal/model"
	"mnpusim/internal/npu"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
)

// Config fully describes one simulation: N cores, their workloads, the
// shared memory system, and the sharing level.
type Config struct {
	// Arch and Nets are per-core; their lengths define the core count.
	Arch []npu.ArchConfig
	Nets []model.Network

	Sharing Sharing

	// DRAM is the total device, e.g. HBM2(cores * channelsPerCore).
	DRAM dram.Config

	// MMU geometry (per-core amounts; sharing merges them).
	PageSize            mmu.PageSize
	WalkLevels          int // 0 derives from PageSize
	TLBEntriesPerCore   int
	TLBAssoc            int
	PTWPerCore          int
	WalkLatencyPerLevel int
	TLBPorts            int
	MaxPendingWalks     int

	// NoTranslation removes address translation entirely (§4.3's
	// bandwidth-isolation experiments).
	NoTranslation bool

	// DRAMBackedWalks times page-table walks as real DRAM PTE reads
	// instead of the default NeuMMU-style fixed latency (see
	// mmu.WalkMemoryModel); used by the walk-model ablation.
	DRAMBackedWalks bool

	// ChannelPartition, when non-nil, overrides the per-core channel
	// sets derived from Sharing (used for the 1:7 ... 7:1 bandwidth
	// partitioning study).
	ChannelPartition [][]int

	// WalkerMin/WalkerMax, when non-nil, override the walker bounds
	// derived from Sharing (used for the PTW partitioning study).
	WalkerMin []int
	WalkerMax []int

	// DWSWalkerStealing replaces the FCFS walker pool with DWS-style
	// dynamic page-walk stealing (Pratheek et al.), an extension beyond
	// the paper's static/dynamic schemes.
	DWSWalkerStealing bool

	// PhysBytesPerCore sizes each core's physical memory region
	// (Table 2: 4 GB per NPU at paper scale).
	PhysBytesPerCore uint64

	// StartCycles optionally delays each core's execution initiation
	// (misc_config). Nil starts all cores at cycle 0.
	StartCycles []clock.Global

	// MaxGlobalCycles aborts runaway simulations.
	MaxGlobalCycles clock.Global

	// Obs, if non-nil, receives every structured probe event the run
	// emits (see internal/obs): tile and DMA activity, TLB/walker
	// behavior, the DRAM command stream, and main-loop skip windows.
	// Observation never alters execution: Result is byte-identical with
	// Obs set or nil. Sinks shared across concurrent runs must be safe
	// for concurrent use.
	//
	// Hooks (Obs through HostProf) are process-local and excluded
	// from JSON: a Config crosses the wire (internal/serve) as data
	// only, and the content fingerprint ignores them for the same
	// reason.
	Obs obs.Sink `json:"-"`

	// Metrics, if non-nil, additionally folds the probe stream into the
	// registry's counters and histograms (see obs.RegistrySink for the
	// metric names). The registry accumulates: runs sharing one registry
	// sum their counts.
	Metrics *obs.Registry `json:"-"`

	// HostProf, if non-nil, accumulates a wall-time breakdown of the
	// simulator itself (kernel scheduling vs per-component tick time vs
	// probe-sink overhead) and publishes it into Metrics as
	// sim.host_ns.component.* counters at run end. Host time is
	// observation only: results are byte-identical with it on or off,
	// but the published counters are wall-clock and therefore vary run
	// to run — which is why they appear only on explicit opt-in rather
	// than whenever Metrics is set.
	HostProf *hostprof.Profiler `json:"-"`
}

// Cores returns the number of cores.
func (c Config) Cores() int { return len(c.Arch) }

// Validate checks cross-field consistency.
func (c Config) Validate() error {
	n := c.Cores()
	if n == 0 {
		return fmt.Errorf("sim: no cores configured")
	}
	if len(c.Nets) != n {
		return fmt.Errorf("sim: %d networks for %d cores", len(c.Nets), n)
	}
	if c.Sharing == Ideal && n != 1 {
		return fmt.Errorf("sim: Ideal is a single-core baseline; use IdealFor to derive it")
	}
	for i, a := range c.Arch {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
	}
	for i, net := range c.Nets {
		if err := net.Validate(); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if !c.Sharing.SharesDRAM() && c.ChannelPartition == nil && c.DRAM.Channels%n != 0 {
		return fmt.Errorf("sim: %d channels cannot be split equally across %d cores", c.DRAM.Channels, n)
	}
	if c.ChannelPartition != nil {
		if len(c.ChannelPartition) != n {
			return fmt.Errorf("sim: ChannelPartition has %d entries for %d cores", len(c.ChannelPartition), n)
		}
		for i, set := range c.ChannelPartition {
			if len(set) == 0 {
				return fmt.Errorf("sim: core %d has an empty channel set", i)
			}
			for _, ch := range set {
				if ch < 0 || ch >= c.DRAM.Channels {
					return fmt.Errorf("sim: core %d channel %d out of range", i, ch)
				}
			}
		}
	}
	if c.PhysBytesPerCore == 0 {
		return fmt.Errorf("sim: PhysBytesPerCore must be positive")
	}
	if c.StartCycles != nil && len(c.StartCycles) != n {
		return fmt.Errorf("sim: StartCycles has %d entries for %d cores", len(c.StartCycles), n)
	}
	return nil
}

// channelSets resolves the per-core channel assignment.
func (c Config) channelSets() [][]int {
	n := c.Cores()
	if c.ChannelPartition != nil {
		return c.ChannelPartition
	}
	sets := make([][]int, n)
	if c.Sharing.SharesDRAM() {
		all := make([]int, c.DRAM.Channels)
		for i := range all {
			all[i] = i
		}
		for i := range sets {
			sets[i] = all
		}
		return sets
	}
	per := c.DRAM.Channels / n
	for i := range sets {
		set := make([]int, per)
		for j := range set {
			set[j] = i*per + j
		}
		sets[i] = set
	}
	return sets
}

// mmuConfig resolves the MMU configuration from the sharing level.
func (c Config) mmuConfig() mmu.Config {
	return mmu.Config{
		Cores:               c.Cores(),
		PageSize:            c.PageSize,
		WalkLevels:          c.WalkLevels,
		TLBEntriesPerCore:   c.TLBEntriesPerCore,
		TLBAssoc:            c.TLBAssoc,
		SharedTLB:           c.Sharing.SharesTLB(),
		WalkersPerCore:      c.PTWPerCore,
		WalkLatencyPerLevel: c.WalkLatencyPerLevel,
		WalkMemory:          walkModel(c.DRAMBackedWalks),
		SharedPTW:           c.Sharing.SharesPTW(),
		WalkerMin:           c.WalkerMin,
		WalkerMax:           c.WalkerMax,
		WalkerPolicy:        walkerPolicy(c.DWSWalkerStealing),
		TLBPortsPerCycle:    c.TLBPorts,
		MaxPendingWalks:     c.MaxPendingWalks,
		Disabled:            c.NoTranslation,
	}
}

func walkerPolicy(dws bool) mmu.WalkerSharePolicy {
	if dws {
		return mmu.DWSStealing
	}
	return mmu.PoolBounds
}

func walkModel(dramBacked bool) mmu.WalkMemoryModel {
	if dramBacked {
		return mmu.DRAMBackedWalks
	}
	return mmu.FixedWalkLatency
}

// IdealFor derives the single-core Ideal baseline for core i of cfg: the
// workload monopolizes the whole package — every channel, the full
// walker pool, and the merged TLB capacity (§4.1.3).
func IdealFor(cfg Config, i int) Config {
	n := cfg.Cores()
	out := cfg
	out.Arch = []npu.ArchConfig{cfg.Arch[i]}
	out.Nets = []model.Network{cfg.Nets[i]}
	out.Sharing = Ideal
	out.ChannelPartition = nil
	out.WalkerMin = nil
	out.WalkerMax = nil
	out.TLBEntriesPerCore = cfg.TLBEntriesPerCore * n
	out.PTWPerCore = cfg.PTWPerCore * n
	out.StartCycles = nil
	out.Obs = nil
	out.Metrics = nil
	return out
}
