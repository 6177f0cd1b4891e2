package recorder

import (
	"bytes"
	"testing"

	"mnpusim/internal/obs"
)

// FuzzDecode guards the flight-recorder decoder, which reads dumps
// fetched from GET /v1/jobs/{id}/dump or from disk. Decode must never
// panic, and a dump it accepts must replay into the registry without
// panicking and into a Chrome trace that ValidateChromeTrace accepts.
// The seed corpus (a dump of a real run, a truncated one, a bad magic,
// a run end before a tile finish) is in testdata/fuzz/FuzzDecode and
// runs in ordinary `go test` as well.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		d.Snapshot()
		var buf bytes.Buffer
		if err := d.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("replaying an accepted dump: %v", err)
		}
		if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
			t.Fatalf("replay of an accepted dump is not a valid trace: %v", err)
		}
	})
}
