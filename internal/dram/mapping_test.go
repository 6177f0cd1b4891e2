package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mnpusim/internal/invariant"
)

func TestMapperBadChannelSet(t *testing.T) {
	// NewMapper's validation lives behind the invariants build tag;
	// the error-returning public path is Memory.SetCoreChannels.
	cfg := HBM2(4)
	for _, set := range [][]int{nil, {}, {-1}, {4}} {
		func() {
			defer func() {
				if r := recover(); invariant.Enabled && r == nil && len(set) == 0 {
					t.Errorf("NewMapper(%v) did not panic under -tags=invariants", set)
				}
			}()
			NewMapper(cfg, set)
		}()
	}
	m := mustNew(cfg)
	for _, set := range [][]int{{-1}, {4}} {
		if err := m.SetCoreChannels(0, set); err == nil {
			t.Errorf("SetCoreChannels(0, %v): no error", set)
		}
	}
	if err := m.SetCoreChannels(-1, []int{0}); err == nil {
		t.Error("SetCoreChannels(-1, ...): no error")
	}
	if err := m.SetCoreChannels(0, []int{0, 1}); err != nil {
		t.Errorf("valid SetCoreChannels failed: %v", err)
	}
}

func TestMapperCopiesChannelSet(t *testing.T) {
	cfg := HBM2(4)
	set := []int{0, 1}
	m := NewMapper(cfg, set)
	set[0] = 3
	if m.Channels()[0] != 0 {
		t.Error("mapper aliases the caller's channel slice")
	}
}

func TestMapperInterleavesEvenly(t *testing.T) {
	cfg := HBM2(4)
	m := NewMapper(cfg, []int{1, 3})
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		loc := m.Locate(uint64(i) * uint64(cfg.BlockBytes))
		counts[loc.Channel]++
	}
	if counts[1] != 500 || counts[3] != 500 {
		t.Errorf("interleave counts = %v, want 500/500 on channels 1 and 3", counts)
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Errorf("blocks landed outside the channel set: %v", counts)
	}
}

func TestMapperSequentialBlocksShareRows(t *testing.T) {
	cfg := HBM2(1)
	m := NewMapper(cfg, []int{0})
	blocksPerRow := cfg.RowBytes / cfg.BlockBytes
	first := m.Locate(0)
	for i := 1; i < blocksPerRow; i++ {
		loc := m.Locate(uint64(i * cfg.BlockBytes))
		if loc.Row != first.Row || loc.Bank != first.Bank || loc.BankGroup != first.BankGroup {
			t.Fatalf("block %d left the row: %+v vs %+v", i, loc, first)
		}
		if loc.ColBlock != i {
			t.Fatalf("block %d col = %d", i, loc.ColBlock)
		}
	}
	// The next row-worth of blocks lands in a different bank group
	// (bank-level parallelism for streams).
	next := m.Locate(uint64(blocksPerRow * cfg.BlockBytes))
	if next.BankGroup == first.BankGroup && next.Bank == first.Bank && next.Row == first.Row {
		t.Error("row crossing did not change bank")
	}
}

func TestBankIndexBijective(t *testing.T) {
	cfg := HBM2(1)
	seen := map[int]bool{}
	for r := 0; r < cfg.Ranks; r++ {
		for bg := 0; bg < cfg.BankGroups; bg++ {
			for b := 0; b < cfg.BanksPerGroup; b++ {
				idx := cfg.BankIndex(Location{Rank: r, BankGroup: bg, Bank: b})
				if idx < 0 || idx >= cfg.BanksPerChannel() {
					t.Fatalf("bank index %d out of range", idx)
				}
				if seen[idx] {
					t.Fatalf("bank index %d repeated", idx)
				}
				seen[idx] = true
			}
		}
	}
}

// Property: every location is within the device geometry, and locate is
// deterministic.
func TestQuickLocateWithinGeometry(t *testing.T) {
	cfg := HBM2Scaled(3, 8) // odd channel count exercises division split
	m := NewMapper(cfg, []int{0, 1, 2})
	f := func(addrRaw uint32) bool {
		addr := uint64(addrRaw) * 64
		loc := m.Locate(addr)
		if loc != m.Locate(addr) {
			return false
		}
		return loc.Channel >= 0 && loc.Channel < cfg.Channels &&
			loc.Rank >= 0 && loc.Rank < cfg.Ranks &&
			loc.BankGroup >= 0 && loc.BankGroup < cfg.BankGroups &&
			loc.Bank >= 0 && loc.Bank < cfg.BanksPerGroup &&
			loc.Row >= 0 &&
			loc.ColBlock >= 0 && loc.ColBlock < cfg.RowBytes/cfg.BlockBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two distinct block addresses in the same channel set never
// collide on the same (channel, rank, bg, bank, row, col) cell.
func TestQuickLocateInjective(t *testing.T) {
	cfg := HBM2(2)
	m := NewMapper(cfg, []int{0, 1})
	f := func(aRaw, bRaw uint16) bool {
		a := uint64(aRaw) * 64
		b := uint64(bRaw) * 64
		if a == b {
			return true
		}
		return m.Locate(a) != m.Locate(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStridedAccessDoesNotCampOnOneChannel(t *testing.T) {
	// Column-tiled FC weights read with a power-of-two stride (8
	// blocks here). Without channel-permutation hashing every access
	// lands on one channel; with it, the spread must be near-even.
	cfg := HBM2(8)
	m := NewMapper(cfg, []int{0, 1, 2, 3, 4, 5, 6, 7})
	counts := map[int]int{}
	for i := 0; i < 1024; i++ {
		loc := m.Locate(uint64(i * 8 * cfg.BlockBytes)) // stride 512 B
		counts[loc.Channel]++
	}
	for ch := 0; ch < 8; ch++ {
		if counts[ch] < 64 || counts[ch] > 256 {
			t.Errorf("channel %d got %d of 1024 strided accesses", ch, counts[ch])
		}
	}
}

func TestAlignedStreamsDoNotShareBankPhase(t *testing.T) {
	// Two streams from region-aligned bases (two cores' physical
	// regions) must not visit the same (bank group, bank) at the same
	// stream offset for long runs — the lockstep pattern that
	// ping-pongs rows.
	cfg := HBM2(2)
	m := NewMapper(cfg, []int{0, 1})
	same := 0
	const rows = 64
	blocksPerRow := cfg.RowBytes / cfg.BlockBytes
	for r := 0; r < rows; r++ {
		a := m.Locate(uint64(r * blocksPerRow * cfg.BlockBytes * 2)) // row-granular steps
		b := m.Locate(uint64(256<<20) + uint64(r*blocksPerRow*cfg.BlockBytes*2))
		if a.BankGroup == b.BankGroup && a.Bank == b.Bank {
			same++
		}
	}
	if same > rows/2 {
		t.Errorf("aligned streams share bank phase in %d of %d rows", same, rows)
	}
}

// divMapper is the division form of Mapper's decode, the reference the
// shift-and-mask form is checked against.
type divMapper struct {
	cfg      Config
	channels []int
}

func (m divMapper) split(addr uint64) (ch int, local uint64) {
	block := addr / uint64(m.cfg.BlockBytes)
	n := uint64(len(m.channels))
	local = block / n
	return m.channels[(block+rowMix(local))%n], local
}

func (m divMapper) locate(addr uint64) Location {
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
	mix := rowMix(uint64(row))
	bg = (bg + int(mix%uint64(c.BankGroups))) % c.BankGroups
	bank = (bank + int((mix/uint64(c.BankGroups))%uint64(c.BanksPerGroup))) % c.BanksPerGroup
	return Location{Channel: ch, Rank: rank, BankGroup: bg, Bank: bank, Row: row, ColBlock: col}
}

// TestLocateMatchesDivision checks split and Locate against their
// division form over seeded addresses, on the HBM2 geometry (every
// divisor a power of two), on 7- and 3-channel sets, and on a geometry
// whose ranks, banks per group and blocks per row are not powers of
// two.
func TestLocateMatchesDivision(t *testing.T) {
	odd := HBM2(4)
	odd.Ranks = 3
	odd.BanksPerGroup = 3
	odd.RowBytes = 24 * odd.BlockBytes
	setups := []struct {
		name     string
		cfg      Config
		channels []int
		pow2     bool // every divisor decodes by shift and mask
	}{
		{"hbm2-8ch", HBM2(8), []int{0, 1, 2, 3, 4, 5, 6, 7}, true},
		{"7-channel-set", HBM2(8), []int{1, 2, 3, 4, 5, 6, 7}, false},
		{"3-channel-set", HBM2(4), []int{0, 1, 3}, false},
		{"odd-geometry", odd, []int{0, 2}, false},
	}
	for i, s := range setups {
		t.Run(s.name, func(t *testing.T) {
			if err := s.cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			m := NewMapper(s.cfg, s.channels)
			if got := m.block.pow2 && m.ch.pow2 && m.col.pow2 && m.bg.pow2 && m.bank.pow2 && m.rank.pow2; got != s.pow2 {
				t.Fatalf("every divisor a power of two: %v, want %v", got, s.pow2)
			}
			ref := divMapper{cfg: s.cfg, channels: s.channels}
			rng := rand.New(rand.NewSource(int64(i + 1)))
			for n := 0; n < 20000; n++ {
				addr := rng.Uint64() >> (16 + rng.Intn(32)) // 48 bits and below
				gotCh, gotLocal := m.split(addr)
				wantCh, wantLocal := ref.split(addr)
				if gotCh != wantCh || gotLocal != wantLocal {
					t.Fatalf("split(%#x) = (%d, %d), division form (%d, %d)", addr, gotCh, gotLocal, wantCh, wantLocal)
				}
				if got, want := m.Locate(addr), ref.locate(addr); got != want {
					t.Fatalf("Locate(%#x) = %+v, division form %+v", addr, got, want)
				}
			}
		})
	}
}
