package dtrace

import (
	"strconv"
	"testing"
)

// FuzzParseTraceparent guards the parser of the traceparent header,
// which arrives from outside the daemon on every request. The seed
// corpus is in testdata/fuzz/FuzzParseTraceparent and runs in ordinary
// `go test` as well.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", v, sc)
		}
		back := sc.Traceparent()
		if back[:52] != v[:52] {
			t.Fatalf("%q round-trips its IDs to %q", v, back)
		}
		if again, ok := ParseTraceparent(back); !ok || again != sc {
			t.Fatalf("%q re-parses from %q as %+v (ok=%v), want %+v", v, back, again, ok, sc)
		}
		flags, err := strconv.ParseUint(v[53:55], 16, 8)
		if err != nil {
			t.Fatalf("accepted %q with flags that are not hex: %v", v, err)
		}
		if sc.Sampled != (flags&1 == 1) {
			t.Fatalf("%q: Sampled = %v, but flags bit 0 is %d", v, sc.Sampled, flags&1)
		}
	})
}
