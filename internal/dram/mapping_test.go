package dram

import (
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
