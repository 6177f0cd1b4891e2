package mmu

// tlbEntry is one translation cached in the TLB.
type tlbEntry struct {
	valid bool
	asid  int
	vpn   uint64
	ppn   uint64
	used  int64 // LRU timestamp
}

// TLB is a set-associative, LRU-replaced translation lookaside buffer.
// Entries are tagged with an address-space ID so a single shared TLB can
// hold translations for several cores (the +DWT configuration); a
// private TLB simply always passes the same ASID.
type TLB struct {
	sets   [][]tlbEntry
	clock  int64
	hits   int64
	misses int64
}

// NewTLB builds a TLB with the given total entries and associativity.
// entries must be a positive multiple of assoc.
func NewTLB(entries, assoc int) *TLB {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		//lint:allow nolibpanic geometry comes from mmu.Config.Validate-checked fields; reaching here is a programming error
		panic("mmu: bad TLB geometry")
	}
	numSets := entries / assoc
	sets := make([][]tlbEntry, numSets)
	backing := make([]tlbEntry, entries)
	for i := range sets {
		sets[i], backing = backing[:assoc], backing[assoc:]
	}
	return &TLB{sets: sets}
}

func (t *TLB) setIndex(asid int, vpn uint64) int {
	// As in hardware, the set index comes from the address bits alone
	// (not the ASID). In a shared TLB, co-runners whose footprints
	// overlap in VPN space therefore contend for the same sets — the
	// inter-NPU conflict misses the paper observes below 8-way
	// associativity (§4.4.2).
	_ = asid
	return int(vpn % uint64(len(t.sets)))
}

// Lookup probes the TLB. On a hit it refreshes LRU state and returns the
// physical page base.
func (t *TLB) Lookup(asid int, vpn uint64) (ppn uint64, ok bool) {
	t.clock++
	set := t.sets[t.setIndex(asid, vpn)]
	for i := range set {
		e := &set[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			e.used = t.clock
			t.hits++
			return e.ppn, true
		}
	}
	t.misses++
	return 0, false
}

// Insert fills the translation, evicting the LRU way of its set.
func (t *TLB) Insert(asid int, vpn, ppn uint64) {
	t.clock++
	set := t.sets[t.setIndex(asid, vpn)]
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.asid == asid && e.vpn == vpn {
			e.ppn = ppn
			e.used = t.clock
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.used < set[victim].used {
			victim = i
		}
	}
	set[victim] = tlbEntry{valid: true, asid: asid, vpn: vpn, ppn: ppn, used: t.clock}
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (t *TLB) HitRate() float64 {
	n := t.hits + t.misses
	if n == 0 {
		return 0
	}
	return float64(t.hits) / float64(n)
}
