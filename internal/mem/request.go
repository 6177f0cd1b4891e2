// Package mem defines the memory-request types exchanged between the NPU
// cores, the MMU, and the DRAM model, plus small queue helpers shared by
// the hardware-side packages.
//
// In an NPU with a virtually addressed scratchpad, every off-chip
// transaction carries a virtual address and must be translated before it
// reaches DRAM. A Request therefore travels: DMA engine -> TLB ->
// (optional page walk) -> DRAM controller -> completion, which the
// memory system announces through its one completion hook.
package mem

import "fmt"

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
// by the DMA engine (Data) or by page-table walkers (PageTable). It is
// plain data: whoever completes it dispatches on Class and Core.
//
// Addr holds the physical address once the request has been translated;
// until then it is zero and VAddr carries the virtual address. Size is
// the transaction granularity in bytes (one DRAM burst).
type Request struct {
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
}

func (r *Request) String() string {
	return fmt.Sprintf("req{core=%d %s%s va=%#x pa=%#x sz=%d}",
		r.Core, r.Class, r.Kind, r.VAddr, r.Addr, r.Size)
}

// Admission is a translation port's answer to a submitted request: it
// took the request, or it says why not, which tells the submitter what
// can change the answer.
type Admission uint8

const (
	// Admitted: the request was taken; the memory system announces its
	// completion.
	Admitted Admission = iota
	// PortsBusy: the submitting core used up this cycle's TLB ports. A
	// retry on the next cycle can be taken.
	PortsBusy
	// MSHRFull: the request needs a page walk and its core's
	// pending-walk limit is reached. Only the completion of one of that
	// core's walks can change the answer.
	MSHRFull
)
