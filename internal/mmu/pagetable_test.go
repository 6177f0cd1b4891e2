package mmu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageSizeShift(t *testing.T) {
	cases := []struct {
		p    PageSize
		want uint
	}{
		{Page4K, 12}, {Page64K, 16}, {Page1M, 20}, {1 << 10, 10}, {2 << 10, 11},
	}
	for _, c := range cases {
		if got := c.p.Shift(); got != c.want {
			t.Errorf("%s.Shift() = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPageSizeWalkLevels(t *testing.T) {
	cases := []struct {
		p    PageSize
		want int
	}{
		{Page4K, 4}, {Page64K, 3}, {Page1M, 2}, {2 << 20, 2}, {8 << 10, 4},
	}
	for _, c := range cases {
		if got := c.p.WalkLevels(); got != c.want {
			t.Errorf("%s.WalkLevels() = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPageSizeString(t *testing.T) {
	if Page4K.String() != "4KB" || Page1M.String() != "1MB" || Page64K.String() != "64KB" {
		t.Errorf("strings: %s %s %s", Page4K, Page64K, Page1M)
	}
}

func TestPhysAllocatorPagesDisjoint(t *testing.T) {
	a := NewPhysAllocator(0, 1<<20, Page4K)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		pa := a.AllocPage()
		if pa%uint64(Page4K) != 0 {
			t.Fatalf("page %#x not aligned", pa)
		}
		if seen[pa] {
			t.Fatalf("page %#x allocated twice", pa)
		}
		seen[pa] = true
	}
	if a.nextData != 100*uint64(Page4K) {
		t.Errorf("data bytes allocated = %d", a.nextData)
	}
}

func TestPhysAllocatorNodesComeFromTop(t *testing.T) {
	a := NewPhysAllocator(0x1000, 1<<20, Page4K)
	page := a.AllocPage()
	node := a.AllocNode(4096)
	if page >= node {
		t.Errorf("data page %#x should be below node frame %#x", page, node)
	}
	if node+4096 > 0x1000+1<<20 {
		t.Errorf("node frame %#x outside region", node)
	}
}

func TestPhysAllocatorExhaustionPanics(t *testing.T) {
	a := NewPhysAllocator(0, 2*uint64(Page4K), Page4K)
	a.AllocPage()
	a.AllocPage()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	a.AllocPage()
}

func newTestTable(p PageSize, levels int) *PageTable {
	return NewPageTable(p, levels, NewPhysAllocator(0, 1<<30, p))
}

func TestWalkReturnsOneAddressPerLevel(t *testing.T) {
	for _, levels := range []int{2, 3, 4} {
		pt := newTestTable(Page4K, levels)
		_, ptes := pt.Walk(42, nil)
		if len(ptes) != levels {
			t.Errorf("levels=%d: got %d PTE addresses", levels, len(ptes))
		}
	}
}

func TestWalkDeterministic(t *testing.T) {
	pt := newTestTable(Page4K, 4)
	ppn1, ptes1 := pt.Walk(7, nil)
	ppn2, ptes2 := pt.Walk(7, nil)
	if ppn1 != ppn2 {
		t.Errorf("ppn changed: %#x vs %#x", ppn1, ppn2)
	}
	for i := range ptes1 {
		if ptes1[i] != ptes2[i] {
			t.Errorf("level %d address changed", i)
		}
	}
	if got := pt.alloc.nextData / uint64(Page4K); got != 1 {
		t.Errorf("pages mapped = %d, want 1", got)
	}
}

func TestWalkDistinctVPNsGetDistinctPages(t *testing.T) {
	pt := newTestTable(Page4K, 4)
	seen := map[uint64]bool{}
	for vpn := uint64(0); vpn < 200; vpn++ {
		ppn, _ := pt.Walk(vpn, nil)
		if seen[ppn] {
			t.Fatalf("ppn %#x reused for vpn %d", ppn, vpn)
		}
		seen[ppn] = true
	}
	if got := pt.alloc.nextData / uint64(Page4K); got != 200 {
		t.Errorf("pages mapped = %d", got)
	}
}

func TestWalkSharesUpperLevels(t *testing.T) {
	pt := newTestTable(Page4K, 4)
	_, a := pt.Walk(0, nil)
	_, b := pt.Walk(1, nil) // adjacent page: same upper levels, different leaf
	for lv := 0; lv < 3; lv++ {
		if a[lv] != b[lv] {
			t.Errorf("level %d differs for adjacent vpns", lv)
		}
	}
	if a[3] == b[3] {
		t.Error("leaf PTEs should differ for different vpns")
	}
}

func TestWalkDistantVPNsDivergeEarly(t *testing.T) {
	pt := newTestTable(Page4K, 4)
	_, a := pt.Walk(0, nil)
	_, b := pt.Walk(1<<30, nil) // far apart: diverge at the root index
	if a[0] == b[0] {
		t.Error("distant vpns should use different root PTEs")
	}
	// Both root PTEs live in the same (root) node frame.
	rootFrame := func(addr uint64) uint64 { return addr &^ 4095 }
	if rootFrame(a[0]) != rootFrame(b[0]) {
		t.Error("root PTEs should share the root node frame")
	}
}

func TestTranslatePreservesOffset(t *testing.T) {
	pt := newTestTable(Page4K, 4)
	va := uint64(0x12345)
	pa := pt.Translate(va)
	if pa&0xFFF != va&0xFFF {
		t.Errorf("page offset lost: va=%#x pa=%#x", va, pa)
	}
	// Same page, different offset, maps to same frame.
	pa2 := pt.Translate(va + 8)
	if pa2 != pa+8 {
		t.Errorf("intra-page contiguity broken: %#x vs %#x", pa2, pa+8)
	}
}

// Property: translation is a function (same VA always gives same PA) and
// injective across pages.
func TestQuickTranslateConsistent(t *testing.T) {
	pt := newTestTable(2<<10, 4)
	f := func(vaRaw uint32) bool {
		va := uint64(vaRaw)
		pa := pt.Translate(va)
		return pt.Translate(va) == pa && pa&2047 == va&2047
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PTE addresses never collide with data pages (nodes allocate
// from the top of the region, pages from the bottom).
func TestQuickWalkAddressesAreNotDataPages(t *testing.T) {
	alloc := NewPhysAllocator(0, 1<<30, Page4K)
	pt := NewPageTable(Page4K, 0, alloc)
	f := func(vpnRaw uint16) bool {
		vpn := uint64(vpnRaw)
		ppn, ptes := pt.Walk(vpn, nil)
		for _, a := range ptes {
			if a >= ppn && a < ppn+uint64(Page4K) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTranslateMemoMatchesWalk checks the memoized Translate against
// Walk over interleaved streams, as a core's loads and stores
// interleave, and over scattered pages.
func TestTranslateMemoMatchesWalk(t *testing.T) {
	memo, ref := newTestTable(Page4K, 4), newTestTable(Page4K, 4)
	rng := rand.New(rand.NewSource(2))
	streams := []uint64{0, 1 << 24, 5 << 28}
	for i := 0; i < 20000; i++ {
		var va uint64
		if i%5 == 4 {
			va = uint64(rng.Int63n(1 << 40))
		} else {
			s := &streams[rng.Intn(len(streams))]
			va = *s
			*s += 64
		}
		ppn, _ := ref.Walk(va>>12, nil)
		if got, want := memo.Translate(va), ppn|va&4095; got != want {
			t.Fatalf("va %#x: Translate %#x, Walk %#x", va, got, want)
		}
	}
}
