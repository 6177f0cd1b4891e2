package mmu

import (
	"testing"
	"testing/quick"
)

func TestNewTLBRejectsBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {8, 0}, {10, 4}, {-8, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTLB(%d, %d) did not panic", g[0], g[1])
				}
			}()
			NewTLB(g[0], g[1])
		}()
	}
}

func TestTLBGeometry(t *testing.T) {
	tlb := NewTLB(32, 8)
	if len(tlb.sets) != 4 || len(tlb.sets[0]) != 8 {
		t.Errorf("geometry: sets=%d assoc=%d", len(tlb.sets), len(tlb.sets[0]))
	}
}

func TestTLBHitAfterInsert(t *testing.T) {
	tlb := NewTLB(16, 4)
	if _, ok := tlb.Lookup(0, 5); ok {
		t.Fatal("hit on empty TLB")
	}
	tlb.Insert(0, 5, 0xAA000)
	ppn, ok := tlb.Lookup(0, 5)
	if !ok || ppn != 0xAA000 {
		t.Fatalf("lookup after insert: %#x %v", ppn, ok)
	}
	if tlb.hits != 1 || tlb.misses != 1 {
		t.Errorf("hits=%d misses=%d", tlb.hits, tlb.misses)
	}
	if tlb.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", tlb.HitRate())
	}
}

func TestTLBASIDsDoNotAlias(t *testing.T) {
	tlb := NewTLB(16, 4)
	tlb.Insert(0, 9, 0x1000)
	tlb.Insert(1, 9, 0x2000)
	if ppn, ok := tlb.Lookup(0, 9); !ok || ppn != 0x1000 {
		t.Errorf("asid 0: %#x %v", ppn, ok)
	}
	if ppn, ok := tlb.Lookup(1, 9); !ok || ppn != 0x2000 {
		t.Errorf("asid 1: %#x %v", ppn, ok)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	// Direct-mapped sets of 2 ways: fill one set with 2 entries, touch
	// the first, insert a third; the untouched second must be evicted.
	tlb := NewTLB(8, 2) // 4 sets
	sets := uint64(4)
	// vpns mapping to set 0: multiples of 4.
	tlb.Insert(0, 0*sets, 0x1000)
	tlb.Insert(0, 1*sets, 0x2000)
	tlb.Lookup(0, 0) // refresh vpn 0
	tlb.Insert(0, 2*sets, 0x3000)
	if _, ok := tlb.Lookup(0, 0); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := tlb.Lookup(0, 1*sets); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := tlb.Lookup(0, 2*sets); !ok {
		t.Error("new entry missing")
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	tlb := NewTLB(8, 2)
	tlb.Insert(0, 3, 0x1000)
	tlb.Insert(0, 3, 0x5000)
	if ppn, _ := tlb.Lookup(0, 3); ppn != 0x5000 {
		t.Errorf("re-insert did not update: %#x", ppn)
	}
}

// TestTLBLookupMatchesASID checks that an entry hits only for the
// address space that inserted it, in a set with room for both.
func TestTLBLookupMatchesASID(t *testing.T) {
	tlb := NewTLB(16, 4)
	tlb.Insert(0, 1, 0x1000)
	if _, ok := tlb.Lookup(1, 1); ok {
		t.Error("another asid hit the entry")
	}
	if ppn, ok := tlb.Lookup(0, 1); !ok || ppn != 0x1000 {
		t.Errorf("own asid: %#x %v", ppn, ok)
	}
}

func TestTLBSetIndexFromAddressBits(t *testing.T) {
	// Two cores inserting the same VPN contend for the same set — the
	// inter-NPU conflict behavior of §4.4.2. With 1-way sets, the
	// second insert evicts the first.
	tlb := NewTLB(4, 1)
	tlb.Insert(0, 8, 0x1000)
	tlb.Insert(1, 8, 0x2000) // same set (index from vpn only)
	if _, ok := tlb.Lookup(0, 8); ok {
		t.Error("direct-mapped shared TLB should conflict across ASIDs")
	}
}

func TestTLBHigherAssocAvoidsConflicts(t *testing.T) {
	tlb := NewTLB(8, 2)
	tlb.Insert(0, 8, 0x1000)
	tlb.Insert(1, 8, 0x2000)
	if _, ok := tlb.Lookup(0, 8); !ok {
		t.Error("2-way TLB should hold both cores' entries")
	}
	if _, ok := tlb.Lookup(1, 8); !ok {
		t.Error("2-way TLB lost the second core's entry")
	}
}

// Property: after Insert, an immediate Lookup hits with the right PPN.
func TestQuickInsertThenLookup(t *testing.T) {
	tlb := NewTLB(64, 4)
	f := func(asidRaw uint8, vpn uint16, ppnRaw uint32) bool {
		asid := int(asidRaw % 4)
		ppn := uint64(ppnRaw) << 12
		tlb.Insert(asid, uint64(vpn), ppn)
		got, ok := tlb.Lookup(asid, uint64(vpn))
		return ok && got == ppn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the TLB never exceeds its capacity — inserting N+1 distinct
// entries into one set keeps at most assoc of them.
func TestQuickSetCapacity(t *testing.T) {
	f := func(n uint8) bool {
		tlb := NewTLB(16, 4) // 4 sets
		count := int(n%20) + 5
		for i := 0; i < count; i++ {
			tlb.Insert(0, uint64(i*4), uint64(i)<<12) // all in set 0
		}
		hits := 0
		for i := 0; i < count; i++ {
			if _, ok := tlb.Lookup(0, uint64(i*4)); ok {
				hits++
			}
		}
		return hits <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
