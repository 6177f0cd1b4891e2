package dram

import "mnpusim/internal/invariant"

// Location identifies where a physical block lives inside the device.
type Location struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int
	Row       int64
	// ColBlock is the column position in units of BlockBytes within
	// the row.
	ColBlock int
}

// BankIndex flattens (rank, bank group, bank) into a per-channel bank
// index in [0, BanksPerChannel). It takes the Config by pointer: the
// controllers call it for every queued request they consider, every
// cycle.
func (c *Config) BankIndex(l Location) int {
	return (l.Rank*c.BankGroups+l.BankGroup)*c.BanksPerGroup + l.Bank
}

// Mapper decodes physical addresses into device locations for one core's
// channel set.
//
// The channel is selected by interleaving consecutive blocks across the
// core's channel set; the remaining (channel-local) block index is
// decoded column-first so that streaming accesses enjoy row-buffer hits,
// with bank group rotating before bank and rank, and the row in the high
// bits:
//
//	local = blockIndex / len(channels)
//	col   = local % blocksPerRow
//	bg    = (local / blocksPerRow) % bankGroups
//	bank  = ... % banksPerGroup
//	rank  = ... % ranks
//	row   = remaining high bits
//
// Using a division-based split (rather than dedicated channel bits) lets
// a channel set of any size — including the 7-channel side of a 1:7
// partition — interleave evenly.
type Mapper struct {
	cfg      Config
	channels []int
}

// NewMapper returns a Mapper for the given channel set. The set must be
// non-empty and every channel must exist in cfg; callers reaching this
// from user input validate first (Memory.SetCoreChannels returns an
// error), so the checks here guard internal construction only.
func NewMapper(cfg Config, channels []int) Mapper {
	if invariant.Enabled {
		invariant.Check(len(channels) > 0, "dram: empty channel set")
		for _, ch := range channels {
			invariant.Check(ch >= 0 && ch < cfg.Channels, "dram: channel %d out of range [0,%d)", ch, cfg.Channels)
		}
	}
	cp := make([]int, len(channels))
	copy(cp, channels)
	return Mapper{cfg: cfg, channels: cp}
}

// Channels returns the channel set this mapper interleaves across.
func (m *Mapper) Channels() []int { return m.channels }

// split decodes addr's channel and its channel-local block index; the
// channel alone is what admission control needs.
//
// Channel permutation: within each group of n consecutive blocks,
// rotate the residue-to-channel assignment by a hash of the group
// index. Without it, a power-of-two access stride (e.g. the
// column-tiled weight blocks of an FC layer, stride N bytes) camps on a
// single channel; the rotation is bijective per group, so the mapping
// stays collision-free and sequential streams still spread perfectly
// evenly.
func (m *Mapper) split(addr uint64) (ch int, local uint64) {
	block := addr / uint64(m.cfg.BlockBytes)
	n := uint64(len(m.channels))
	local = block / n
	return m.channels[(block+rowMix(local))%n], local
}

// Locate decodes addr. Addresses are block-aligned by construction of
// the request generator; sub-block bits are ignored.
func (m *Mapper) Locate(addr uint64) Location {
	c := &m.cfg
	ch, local := m.split(addr)

	blocksPerRow := uint64(c.RowBytes / c.BlockBytes)
	col := int(local % blocksPerRow)
	t := local / blocksPerRow
	bg := int(t % uint64(c.BankGroups))
	t /= uint64(c.BankGroups)
	bank := int(t % uint64(c.BanksPerGroup))
	t /= uint64(c.BanksPerGroup)
	rank := int(t % uint64(c.Ranks))
	row := int64(t / uint64(c.Ranks))

	// Bank permutation (XOR-hash on the row bits, as in real
	// controllers): without it, two cores streaming from
	// region-aligned bases walk the banks in lockstep and ping-pong
	// the same bank's rows — a pathological conflict pattern that
	// vanishes with any stagger. The permutation is bijective for a
	// fixed row, so injectivity of the mapping is preserved.
	mix := rowMix(uint64(row))
	bg = (bg + int(mix%uint64(c.BankGroups))) % c.BankGroups
	bank = (bank + int((mix/uint64(c.BankGroups))%uint64(c.BanksPerGroup))) % c.BanksPerGroup

	return Location{Channel: ch, Rank: rank, BankGroup: bg, Bank: bank, Row: row, ColBlock: col}
}

// rowMix folds the row bits into a small avalanche hash for the bank
// permutation.
func rowMix(row uint64) uint64 {
	row ^= row >> 3
	row ^= row >> 7
	row ^= row >> 13
	return row
}
