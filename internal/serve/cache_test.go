package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
)

func newTestCache(t *testing.T, max int, dir string) *resultCache {
	t.Helper()
	c, err := newResultCache(max, dir, nil)
	if err != nil {
		t.Fatalf("newResultCache: %v", err)
	}
	return c
}

func TestCacheMemoryLRU(t *testing.T) {
	c := newTestCache(t, 2, "")
	c.put("a", []byte("ra"), nil)
	c.put("b", []byte("rb"), nil)
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("rc"), nil)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived eviction")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}

// TestCacheDiskRoundTrip verifies a fresh cache instance over the same
// directory serves previously written entries byte-identically — the
// daemon-restart and shared-directory paths.
func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := newTestCache(t, 16, dir)
	result, attr := []byte(`{"global_cycles":42}`), []byte(`{"cores":[]}`)
	c1.put("k1", result, attr)
	c1.put("k2", []byte("r2"), nil) // no attribution

	c2 := newTestCache(t, 16, dir)
	if got := c2.diskLen(); got != 2 {
		t.Fatalf("warm index = %d entries, want 2", got)
	}
	v, ok := c2.get("k1")
	if !ok {
		t.Fatal("k1 missing after reopen")
	}
	if !bytes.Equal(v.result, result) || !bytes.Equal(v.attr, attr) {
		t.Errorf("k1 bytes differ: result %q attr %q", v.result, v.attr)
	}
	v, ok = c2.get("k2")
	if !ok {
		t.Fatal("k2 missing after reopen")
	}
	if !bytes.Equal(v.result, []byte("r2")) || v.attr != nil {
		t.Errorf("k2 = %q attr %q, want r2 with nil attr", v.result, v.attr)
	}
}

// TestCacheDiskReadThrough verifies one instance sees entries another
// instance wrote after both warmed — the path of daemons sharing one
// -cache-dir.
func TestCacheDiskReadThrough(t *testing.T) {
	dir := t.TempDir()
	a := newTestCache(t, 16, dir)
	b := newTestCache(t, 16, dir)
	hits := 0
	b.onDiskHit = func() { hits++ }
	a.put("k", []byte("res"), nil)
	v, ok := b.get("k")
	if !ok || string(v.result) != "res" {
		t.Fatalf("read-through get = %q, %v", v.result, ok)
	}
	if hits != 1 {
		t.Errorf("disk hits = %d, want 1", hits)
	}
	// Promoted into b's memory tier: second get is a memory hit.
	if _, ok := b.get("k"); !ok || hits != 1 {
		t.Errorf("second get: ok=%v hits=%d, want memory hit", ok, hits)
	}
}

// TestSharedCacheDir runs two servers over one CacheDir: a job
// simulated on one is answered by the other from the disk tier, with
// the same bytes and no second simulation.
func TestSharedCacheDir(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	stub := func(ctx context.Context, c sim.Config) (sim.Result, error) {
		sims.Add(1)
		return fakeResult(3), nil
	}
	// Both servers warm their disk index before either has run the job,
	// so the second finds the result by reading through to the disk.
	var cls [2]*client.Client
	var servers [2]*Server
	for i := range servers {
		servers[i] = newStubServer(t, Config{Workers: 1, CacheDir: dir}, stub)
		ts := httptest.NewServer(servers[i].Handler())
		t.Cleanup(ts.Close)
		cls[i] = client.New(ts.URL)
	}
	ctx := context.Background()
	var views [2]api.JobView
	for i, cl := range cls {
		v, err := cl.SubmitJob(ctx, ncfSpec())
		if err != nil {
			t.Fatal(err)
		}
		if views[i], err = cl.WaitJob(ctx, v.ID, 5*time.Millisecond); err != nil || views[i].Status != StatusDone {
			t.Fatalf("server %d: %v %+v", i, err, views[i])
		}
	}
	if got := sims.Load(); got != 1 {
		t.Errorf("simulations = %d over one shared directory, want 1", got)
	}
	if !views[1].Cached {
		t.Error("second server's answer not marked cached")
	}
	if string(views[0].Result) != string(views[1].Result) {
		t.Error("shared-cache result bytes differ")
	}
	if got := servers[1].diskCacheHits.Value(); got == 0 {
		t.Error("second server recorded no disk cache hits")
	}
}

// TestCacheCorruptFilesSkipped verifies damaged entries are skipped on
// warm and on read, never fatal, and never served.
func TestCacheCorruptFilesSkipped(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, 16, dir)
	c.put("good", []byte("payload"), nil)

	good, err := os.ReadFile(filepath.Join(dir, "good"+cacheFileExt))
	if err != nil {
		t.Fatal(err)
	}
	// Truncated payload.
	if err := os.WriteFile(filepath.Join(dir, "trunc"+cacheFileExt), good[:len(good)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Flipped payload byte (checksum mismatch).
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, "flip"+cacheFileExt), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	// Garbage header.
	if err := os.WriteFile(filepath.Join(dir, "junk"+cacheFileExt), []byte("not a header\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Header key not matching the filename (a mis-renamed file).
	if err := os.WriteFile(filepath.Join(dir, "aka"+cacheFileExt), good, 0o644); err != nil {
		t.Fatal(err)
	}
	// Stale temp file from a crashed writer.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := newTestCache(t, 16, dir)
	if got := c2.diskLen(); got != 1 {
		t.Fatalf("warm indexed %d entries, want only the good one", got)
	}
	for _, bad := range []string{"trunc", "flip", "junk", "aka"} {
		if _, ok := c2.get(bad); ok {
			t.Errorf("corrupt entry %q was served", bad)
		}
	}
	if _, ok := c2.get("good"); !ok {
		t.Error("good entry lost")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123")); !os.IsNotExist(err) {
		t.Error("stale temp file not removed by warm scan")
	}
}

// TestCacheDiskEviction verifies the persistent tier stays bounded,
// dropping oldest-modified entries first.
func TestCacheDiskEviction(t *testing.T) {
	dir := t.TempDir()
	c := newTestCache(t, 2, dir)
	c.put("e1", []byte("r1"), nil)
	// Age e1 so modification-time ordering is unambiguous.
	old := filepath.Join(dir, "e1"+cacheFileExt)
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	c.put("e2", []byte("r2"), nil)
	c.put("e3", []byte("r3"), nil)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), cacheFileExt) {
			names = append(names, e.Name())
		}
	}
	if len(names) != 2 {
		t.Fatalf("disk entries = %v, want 2", names)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Errorf("oldest entry e1 not evicted; on disk: %v", names)
	}
}
