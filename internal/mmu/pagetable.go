package mmu

import "fmt"

// PhysAllocator hands out physical pages and page-table node frames from
// a core's physical region. Data pages grow upward from the region base;
// page-table frames grow downward from the region top, so walk traffic
// and data traffic land in distinct rows.
type PhysAllocator struct {
	nextData uint64
	nextNode uint64
	pageSize uint64
}

// NewPhysAllocator creates an allocator over [base, base+size).
func NewPhysAllocator(base, size uint64, pageSize PageSize) *PhysAllocator {
	if size == 0 {
		//lint:allow nolibpanic constructor misuse: region size comes from validated sim.Config (PhysBytesPerCore > 0)
		panic("mmu: zero-size physical region")
	}
	return &PhysAllocator{
		nextData: base,
		nextNode: base + size,
		pageSize: uint64(pageSize),
	}
}

// AllocPage returns the physical base of a fresh data page.
func (a *PhysAllocator) AllocPage() uint64 {
	if a.nextData+a.pageSize > a.nextNode {
		//lint:allow nolibpanic exhaustion is an undersized capacity_per_core; surfacing it mid-walk as an error would thread failure through every Translate hot path for a setup-time mistake
		panic(fmt.Sprintf("mmu: physical region exhausted (data=%#x node=%#x)", a.nextData, a.nextNode))
	}
	pa := a.nextData
	a.nextData += a.pageSize
	return pa
}

// AllocNode returns the physical base of a fresh page-table node frame
// of the given size in bytes.
func (a *PhysAllocator) AllocNode(bytes uint64) uint64 {
	if a.nextNode-bytes < a.nextData {
		//lint:allow nolibpanic exhaustion is an undersized capacity_per_core; surfacing it mid-walk as an error would thread failure through every Translate hot path for a setup-time mistake
		panic("mmu: physical region exhausted by page-table nodes")
	}
	a.nextNode -= bytes
	return a.nextNode
}

// ptNode is one radix-tree node.
type ptNode struct {
	pa       uint64
	children map[uint64]*ptNode
	leaves   map[uint64]uint64 // index -> physical page base
}

// PageTable is a software-walked multi-level radix page table for one
// core (one address space). Walk addresses are real physical addresses
// of PTEs so that walker traffic contends in DRAM like any other
// traffic.
type PageTable struct {
	pageSize  PageSize
	levels    int
	bitsPerLv uint
	root      *ptNode
	alloc     *PhysAllocator
	// The page Translate resolved last, if memoOK, and the PTE
	// addresses of its walk, which Translate discards.
	memoVPN, memoPPN uint64
	memoOK           bool
	ptes             []uint64
}

// NewPageTable creates an empty table whose node frames come from
// alloc. levels <= 0 derives the walk depth from the page size.
func NewPageTable(pageSize PageSize, levels int, alloc *PhysAllocator) *PageTable {
	if levels <= 0 {
		levels = pageSize.WalkLevels()
	}
	vaBits := uint(48)
	vpnBits := vaBits - pageSize.Shift()
	bits := (vpnBits + uint(levels) - 1) / uint(levels)
	pt := &PageTable{
		pageSize:  pageSize,
		levels:    levels,
		bitsPerLv: bits,
		alloc:     alloc,
	}
	pt.root = pt.newNode()
	return pt
}

func (t *PageTable) newNode() *ptNode {
	entries := uint64(1) << t.bitsPerLv
	return &ptNode{
		pa:       t.alloc.AllocNode(entries * 8),
		children: make(map[uint64]*ptNode),
		leaves:   make(map[uint64]uint64),
	}
}

// indexAt extracts the radix index of vpn at the given level, where
// level 0 is the root.
func (t *PageTable) indexAt(vpn uint64, level int) uint64 {
	shift := uint(t.levels-1-level) * t.bitsPerLv
	mask := (uint64(1) << t.bitsPerLv) - 1
	return (vpn >> shift) & mask
}

// Walk resolves vpn, allocating intermediate nodes and the backing
// physical page on first touch (the simulator models a pre-faulted
// address space: allocation itself is free, but the walk's PTE reads
// cost a DRAM access or a fixed latency each). It returns the physical
// page base and ptes with the physical addresses of the PTEs a
// hardware walker reads appended, one per level, in walk order.
func (t *PageTable) Walk(vpn uint64, ptes []uint64) (uint64, []uint64) {
	node := t.root
	for lv := 0; lv < t.levels-1; lv++ {
		idx := t.indexAt(vpn, lv)
		ptes = append(ptes, node.pa+idx*8)
		child, ok := node.children[idx]
		if !ok {
			child = t.newNode()
			node.children[idx] = child
		}
		node = child
	}
	idx := t.indexAt(vpn, t.levels-1)
	ptes = append(ptes, node.pa+idx*8)
	ppn, ok := node.leaves[idx]
	if !ok {
		ppn = t.alloc.AllocPage()
		node.leaves[idx] = ppn
	}
	return ppn, ptes
}

// Translate resolves a full virtual address to a physical address,
// allocating on first touch, without modeling walk cost. Used by the
// translation-disabled mode and by tests. A page once resolved never
// moves, so Translate remembers the last page it resolved and skips
// the radix walk while requests stay on it.
func (t *PageTable) Translate(vaddr uint64) uint64 {
	vpn := vaddr >> t.pageSize.Shift()
	if !t.memoOK || t.memoVPN != vpn {
		t.memoVPN, t.memoOK = vpn, true
		t.memoPPN, t.ptes = t.Walk(vpn, t.ptes[:0])
	}
	return t.memoPPN | (vaddr & (uint64(t.pageSize) - 1))
}
