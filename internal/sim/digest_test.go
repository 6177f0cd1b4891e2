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

// pinnedDigests descend from the busy-polling MMU, which ticked on
// every cycle its issue queues or walk FIFO were non-empty, so they pin
// the exact-horizon MMU (which sleeps while DRAM admission is blocked
// and settles its refusals afterwards) against an oracle that shares
// none of its code. TestKernelEventMatchesTick cannot: its tick
// reference drives the same MMU. staggered-start's probe digest was
// recorded once core 1 submitted on the true global cycle (before,
// its MMU-side probes sat 5000 cycles early); its result is unchanged.
// The probe digests were re-pinned once KindDMAIssue came to carry the
// virtual address in B and the direction in Unit (it had carried the
// direction in B): mapping those two fields back reproduced every
// earlier pin under both loops, and no result digest changed.
var pinnedDigests = map[string]pinnedDigest{
	"dram-walks":      {"268599ddadff0c27444d3941d9025844fee50a72603ae32076a1c91f09ccd8db", "061d2a1b379f53b2b042d84893f426747e2728d8db4c978749d5ee25f8f39345"},
	"dual+DWT":        {"5758e647d7359727e1b09d8be1ccfb5a38b8989aba290798a4f99b7380a07303", "95c78ff8f26a093039a077131e6aec9beed964f4dc77e2df08c69f1d0cf2631a"},
	"dual-static":     {"bf98173c4565f3ca7688b45be6ca3fd60e889737d6fd4a706bac5de92b0e0b46", "0d5aac6d928e48031ee991f1aeed9a21dfea0a60f35069d19a8a69cf084c2224"},
	"dws-stealing":    {"7500251c64e7b20855289013a1e91574e38bae699e0fd5169595e8ba61aeb3db", "6a694b2111b4c6ad4f36499b4860f522fe48ddb4f2314bc25c2fb31b31efb87f"},
	"mixed-clocks":    {"752c36965c62194b4d9d696b8e76bfe4f4d64c33412867d49c76e88b45759cbc", "650c6c63fa0126b38752405a41c520839e6fc36eb002e4e6bda268eeb8bff80b"},
	"no-translation":  {"066b6501896ed65927824040e6996149d1df10a4a3c4c56913323caa6aa8327d", "912d24b309e4128844528808e56c569acdb0eb3f29073b649cdb5002b13bde12"},
	"res+dlrm-static": {"34519716e2673b8fd0936ccf8d5404450110552b34c8ecab5cbc6729c7e58524", "e7277d485b0211638b81a0bfdbe6bb36fb45e1b807cd7bb3fa9cc891d41d0bf5"},
	"single-ideal":    {"4c65922fc8fc5cb107af5a5a9b92be65111ec40c96beba4d75fbe0c8436c39ac", "c391077c0df2cd7f83e1fe032dac1aad221624e7ae90bd05f83fdf3bafd9efa4"},
	"staggered-start": {"c1b8fc6259892ef0568b39d81a65790722d8de6ab4e7e8d999aef4aba0b89ae7", "f1db57aa5829890b2c98cbbf21ba6524ce117d888b8be68109f1d3c82cacd8dc"},
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
