package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mnpusim/internal/obs"
)

// pinnedDigest is one config class's recorded output: the sha256 of
// json.Marshal(Result) and of its probe stream (see probeDigest).
type pinnedDigest struct{ result, probes string }

// pinnedDigests were recorded from the busy-polling MMU, which ticked
// on every cycle its issue queues or walk FIFO were non-empty, so they
// pin the exact-horizon MMU (which sleeps while DRAM admission is
// blocked and settles its refusals afterwards) against an oracle that
// shares none of its code. TestKernelEventMatchesTick cannot: its tick
// reference drives the same MMU. staggered-start's probe digest was
// recorded once core 1 submitted on the true global cycle (before,
// its MMU-side probes sat 5000 cycles early); its result is unchanged.
var pinnedDigests = map[string]pinnedDigest{
	"dram-walks":      {"268599ddadff0c27444d3941d9025844fee50a72603ae32076a1c91f09ccd8db", "15bfb482e1046cba90911cf07f129d2250a675b9f29aab257eacbf66b885b167"},
	"dual+DWT":        {"5758e647d7359727e1b09d8be1ccfb5a38b8989aba290798a4f99b7380a07303", "19a97ce1d20e4fbfbf0a3e659bb0203f45a2335ce4fa5221c31bb5522707385c"},
	"dual-static":     {"bf98173c4565f3ca7688b45be6ca3fd60e889737d6fd4a706bac5de92b0e0b46", "9c35f28598532bfd943542a1dc4d2e64d09ac944babb67f9dff439421ba8b442"},
	"dws-stealing":    {"7500251c64e7b20855289013a1e91574e38bae699e0fd5169595e8ba61aeb3db", "83891d9afe42b9f873a5986c3e8af9081a3dc8267ec73bd7436f78d0380258a6"},
	"mixed-clocks":    {"752c36965c62194b4d9d696b8e76bfe4f4d64c33412867d49c76e88b45759cbc", "f66fb7b7f85377d1cd05da4b45f12b263db7da430c1ba946c7bbeac347981ebc"},
	"no-translation":  {"066b6501896ed65927824040e6996149d1df10a4a3c4c56913323caa6aa8327d", "c831aad6892d85f6be0c28300801cb2ce9e4c82158b3b24722eafe94db09ff62"},
	"res+dlrm-static": {"34519716e2673b8fd0936ccf8d5404450110552b34c8ecab5cbc6729c7e58524", "911b1fb59cf71d2d6093a76a1ce5977605ad9d213eb9bd1c714b58dc0bf153a6"},
	"single-ideal":    {"4c65922fc8fc5cb107af5a5a9b92be65111ec40c96beba4d75fbe0c8436c39ac", "c219e3ff3c79df3b5b0133c2935de4fbcccec9fdb0ef193f793ce9c02bea9d2e"},
	"staggered-start": {"c1b8fc6259892ef0568b39d81a65790722d8de6ab4e7e8d999aef4aba0b89ae7", "ea528f76deb002b3b70ae9f845e8fde6ad6cb52bde27f44ae5d4d8d961d9c315"},
}

// probeDigest hashes a probe stream with its skip windows dropped and
// RunEnd's loop-iteration count zeroed: those record how many cycles
// the kernel processed, which a more exact component horizon lowers
// without changing anything simulated.
func probeDigest(events []obs.Event) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, e := range events {
		if e.Kind == obs.KindSkipWindow {
			continue
		}
		if e.Kind == obs.KindRunEnd {
			e.B = 0
		}
		put(e.Cycle.Int64())
		put(int64(e.Kind))
		put(int64(e.Core))
		put(int64(e.Unit))
		put(e.A)
		put(e.B)
		put(int64(len(e.Str)))
		h.Write([]byte(e.Str))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedDigests runs every skipConfigs class under the event kernel
// and compares its serialized Result and probe stream with the pinned
// digests.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("one full simulation per config")
	}
	t.Parallel()
	for name, cfg := range skipConfigs(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, events := captureRun(t, cfg, Loops[1])
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			got := pinnedDigest{result: hex.EncodeToString(sum[:]), probes: probeDigest(events)}
			want, ok := pinnedDigests[name]
			if !ok {
				t.Fatalf("no pinned digests; recorded: %q: {%q, %q}", name, got.result, got.probes)
			}
			if got.result != want.result {
				t.Errorf("result digest %s, pinned %s", got.result, want.result)
			}
			if got.probes != want.probes {
				t.Errorf("probe digest %s, pinned %s", got.probes, want.probes)
			}
		})
	}
}
