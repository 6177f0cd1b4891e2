// Package mem defines the memory-request types exchanged between the NPU
// cores, the MMU, and the DRAM model, plus small queue helpers shared by
// the hardware-side packages.
//
// In an NPU with a virtually addressed scratchpad, every off-chip
// transaction carries a virtual address and must be translated before it
// reaches DRAM. A Request therefore travels: DMA engine -> TLB ->
// (optional page walk) -> DRAM controller -> completion callback.
package mem

import (
	"fmt"

	"mnpusim/internal/clock"
)

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read moves data from DRAM into the scratchpad.
	Read Kind = iota
	// Write moves data from the scratchpad into DRAM.
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Class identifies what a request is fetching, used for logs and for
// distinguishing demand traffic from page-table-walk traffic.
type Class uint8

const (
	// Data is a demand request generated by the DMA engine.
	Data Class = iota
	// PageTable is a request issued by a page-table walker.
	PageTable
)

func (c Class) String() string {
	if c == PageTable {
		return "PT"
	}
	return "D"
}

// Request is a single off-chip memory transaction. Requests are created
// by the DMA engine (Data) or by page-table walkers (PageTable).
//
// Addr holds the physical address once the request has been translated;
// until then it is zero and VAddr carries the virtual address. Size is
// the transaction granularity in bytes (one DRAM burst).
type Request struct {
	ID    uint64
	Core  int
	VAddr uint64
	Addr  uint64
	Size  uint32
	Kind  Kind
	Class Class

	// Routed reports that Channel holds the DRAM channel Addr maps to.
	// The memory system decodes it at most once per request, so a
	// request refused admission over and over is not decoded again on
	// every retry; Addr and Core must not change once it is set.
	Routed  bool
	Channel int

	// Tile and Layer identify the software-side origin of a Data
	// request, for tracing.
	Layer int
	Tile  int

	// Done, if non-nil, is invoked exactly once when the request
	// completes, with the global cycle of completion.
	Done func(now clock.Global, r *Request)
}

func (r *Request) String() string {
	return fmt.Sprintf("req{id=%d core=%d %s%s va=%#x pa=%#x sz=%d}",
		r.ID, r.Core, r.Class, r.Kind, r.VAddr, r.Addr, r.Size)
}

// Admission is a translation port's answer to a submitted request: it
// took the request, or it says why not, which tells the submitter what
// can change the answer.
type Admission uint8

const (
	// Admitted: the request was taken and completes through Done.
	Admitted Admission = iota
	// PortsBusy: the submitting core used up this cycle's TLB ports. A
	// retry on the next cycle can be taken.
	PortsBusy
	// MSHRFull: the request needs a page walk and its core's
	// pending-walk limit is reached. Only the completion of one of that
	// core's walks can change the answer.
	MSHRFull
)

// Complete invokes the completion callback, if any.
func (r *Request) Complete(now clock.Global) {
	if r.Done != nil {
		r.Done(now, r)
	}
}

// IDAllocator hands out unique request IDs. The zero value is ready to
// use.
type IDAllocator struct{ next uint64 }

// Next returns a fresh ID, starting from 1.
func (a *IDAllocator) Next() uint64 {
	a.next++
	return a.next
}
