// Package clock models the clock domains of a multi-core NPU system.
//
// mNPUsim distinguishes a single global clock, running at the DRAM
// frequency, from per-core local clocks running at each NPU core's
// frequency. Requests that cross from a core into the shared memory
// system are synchronized to the global clock, and latencies observed on
// the global clock are translated back into local cycles.
package clock

import "fmt"

// Hz is a clock frequency in hertz.
type Hz int64

// Common frequencies.
const (
	MHz Hz = 1_000_000
	GHz Hz = 1_000_000_000
)

func (f Hz) String() string {
	switch {
	case f >= GHz && f%GHz == 0:
		return fmt.Sprintf("%dGHz", f/GHz)
	case f >= MHz && f%MHz == 0:
		return fmt.Sprintf("%dMHz", f/MHz)
	default:
		return fmt.Sprintf("%dHz", int64(f))
	}
}

// Local is a cycle count on a core's local clock. Global is a cycle
// count on the global (DRAM) clock. They are distinct defined types so
// that cross-domain arithmetic is a compile error: a Local can only
// meet a Global through a Domain conversion. Construct them from plain
// integers only inside this package or at sites carrying a justified
// //lint:allow cycletypes directive (the cycletypes analyzer enforces
// this); extract the raw count with Int64 when handing a cycle to a
// stats struct or an output format.
type Local int64

// Global is a cycle count on the global (DRAM) clock. See Local.
type Global int64

// Int64 returns the raw cycle count. This is the sanctioned exit from
// the typed domain, for stats, serialization, and logging.
func (l Local) Int64() int64 { return int64(l) }

// Int64 returns the raw cycle count. See Local.Int64.
func (g Global) Int64() int64 { return int64(g) }

// FarFuture is the "no pending event" wake horizon. It is an untyped
// constant so it compares and assigns in either clock domain without a
// conversion.
const FarFuture = 1 << 62

// Domain converts cycle counts between a local clock and the global
// (DRAM) clock. The zero value is unusable; use NewDomain.
type Domain struct {
	// lr and gr are the GCD-reduced local and global frequencies, kept
	// small so cycle conversions cannot overflow for any realistic
	// cycle count.
	lr, gr int64
}

// NewDomain returns a Domain for a component running at local hertz in a
// system whose global clock runs at global hertz. Both must be positive.
func NewDomain(local, global Hz) Domain {
	if local <= 0 || global <= 0 {
		//lint:allow nolibpanic frequencies come from validated ArchConfig/presets; a bad Domain would corrupt every cycle conversion downstream
		panic(fmt.Sprintf("clock: non-positive frequency local=%d global=%d", local, global))
	}
	g := gcd(int64(local), int64(global))
	return Domain{lr: int64(local) / g, gr: int64(global) / g}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// ToGlobal converts a local cycle count to global cycles, rounding up so
// a request never appears at the shared resource before it was issued.
func (d Domain) ToGlobal(localCycles Local) Global {
	return Global(ceilDiv(int64(localCycles)*d.gr, d.lr))
}

// LocalFloor returns how many full local cycles have elapsed by global
// cycle g. Cores use it to find how many local cycles to process when
// ticked on the global clock.
func (d Domain) LocalFloor(g Global) Local {
	if g <= 0 {
		return 0
	}
	return Local(int64(g) * d.lr / d.gr)
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
