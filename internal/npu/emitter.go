package npu

import "mnpusim/internal/tile"

// emitter lazily expands a tile's address slices into block-aligned
// request addresses, so a multi-megabyte tile never materializes its
// request list up front.
type emitter struct {
	slices []tile.Slice
	block  uint64
	si     int
	next   uint64 // next block address within slices[si]
	end    uint64 // one past the last block of slices[si]
}

func newEmitter(slices []tile.Slice, blockBytes int) emitter {
	e := emitter{slices: slices, block: uint64(blockBytes)}
	e.loadSlice()
	return e
}

func (e *emitter) loadSlice() {
	for e.si < len(e.slices) {
		s := e.slices[e.si]
		if s.Bytes > 0 {
			e.next = s.Addr &^ (e.block - 1)
			e.end = (s.Addr + uint64(s.Bytes) + e.block - 1) &^ (e.block - 1)
			return
		}
		e.si++
	}
}

// done reports whether all blocks have been emitted.
func (e *emitter) done() bool { return e.si >= len(e.slices) }

// emit returns the next block address. ok is false when exhausted.
func (e *emitter) emit() (addr uint64, ok bool) {
	if e.done() {
		return 0, false
	}
	addr = e.next
	e.next += e.block
	if e.next >= e.end {
		e.si++
		e.loadSlice()
	}
	return addr, true
}
