package recorder

import (
	"io"
	"testing"
)

// FuzzDecode guards the flight-recorder decoder, which reads dumps
// fetched from GET /v1/jobs/{id}/dump or from disk. Decode must never
// panic, and a dump it accepts must replay into the registry and the
// Chrome-trace writer without panicking. The seed corpus (a dump of a
// real run, a truncated one, a bad magic) is in
// testdata/fuzz/FuzzDecode and runs in ordinary `go test` as well.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		d.Snapshot()
		if err := d.WriteChromeTrace(io.Discard); err != nil {
			t.Fatalf("replaying an accepted dump: %v", err)
		}
	})
}
