package dram

import (
	"math/bits"

	"mnpusim/internal/invariant"
)

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
// partition — interleave evenly. Each divisor is fixed when the Mapper
// is built, and one that is a power of two (every divisor of the HBM2
// presets on a 1-, 2-, 4- or 8-channel set) divides by shift and mask.
type Mapper struct {
	channels []int

	block, ch, col, bg, bank, rank radix
}

// radix divides by a fixed positive divisor: by shift and mask when it
// is a power of two, by division otherwise.
type radix struct {
	d     uint64
	shift uint8
	pow2  bool
}

func newRadix(d int) radix {
	u := uint64(d)
	if u&(u-1) == 0 {
		return radix{d: u, shift: uint8(bits.TrailingZeros64(u)), pow2: true}
	}
	return radix{d: u}
}

func (r radix) div(x uint64) uint64 {
	if r.pow2 {
		return x >> r.shift
	}
	return x / r.d
}

func (r radix) mod(x uint64) uint64 {
	if r.pow2 {
		return x & (r.d - 1)
	}
	return x % r.d
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
	return Mapper{
		channels: cp,
		block:    newRadix(cfg.BlockBytes),
		ch:       newRadix(len(channels)),
		col:      newRadix(cfg.RowBytes / cfg.BlockBytes),
		bg:       newRadix(cfg.BankGroups),
		bank:     newRadix(cfg.BanksPerGroup),
		rank:     newRadix(cfg.Ranks),
	}
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
	block := m.block.div(addr)
	local = m.ch.div(block)
	return m.channels[m.ch.mod(block+rowMix(local))], local
}

// Locate decodes addr. Addresses are block-aligned by construction of
// the request generator; sub-block bits are ignored.
func (m *Mapper) Locate(addr uint64) Location {
	ch, local := m.split(addr)

	col := int(m.col.mod(local))
	t := m.col.div(local)
	bg := m.bg.mod(t)
	t = m.bg.div(t)
	bank := m.bank.mod(t)
	t = m.bank.div(t)
	rank := int(m.rank.mod(t))
	row := int64(m.rank.div(t))

	// Bank permutation (XOR-hash on the row bits, as in real
	// controllers): without it, two cores streaming from
	// region-aligned bases walk the banks in lockstep and ping-pong
	// the same bank's rows — a pathological conflict pattern that
	// vanishes with any stagger. The permutation is bijective for a
	// fixed row, so injectivity of the mapping is preserved. Both
	// addends are below the modulus, so one conditional subtraction
	// reduces their sum.
	mix := rowMix(uint64(row))
	bg = wrap(bg+m.bg.mod(mix), m.bg.d)
	bank = wrap(bank+m.bank.mod(m.bg.div(mix)), m.bank.d)

	return Location{Channel: ch, Rank: rank, BankGroup: int(bg), Bank: int(bank), Row: row, ColBlock: col}
}

// wrap reduces x, which is below 2n, modulo n.
func wrap(x, n uint64) uint64 {
	if x >= n {
		return x - n
	}
	return x
}

// rowMix folds the row bits into a small avalanche hash for the bank
// permutation.
func rowMix(row uint64) uint64 {
	row ^= row >> 3
	row ^= row >> 7
	row ^= row >> 13
	return row
}
