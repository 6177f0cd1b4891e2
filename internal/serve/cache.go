package serve

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// cachedResult is one result-cache entry: the canonical result bytes
// plus the run's attribution report bytes (nil when the simulation
// produced none). Both are immutable after insertion.
type cachedResult struct {
	result []byte
	attr   []byte
}

// cacheFileExt is the on-disk entry suffix: one file per fingerprint,
// named "<key>.mnpuc".
const cacheFileExt = ".mnpuc"

// cacheHeader is the first line of a cache file: a JSON object followed
// by exactly ResultLen + AttrLen payload bytes. Sum is the hex SHA-256
// of the concatenated payload, so truncation and bit rot are both
// detected on read.
type cacheHeader struct {
	V         int    `json:"v"`
	Key       string `json:"key"`
	ResultLen int    `json:"result_len"`
	AttrLen   int    `json:"attr_len"`
	Sum       string `json:"sum"`
}

// resultCache is the content-addressed result store: canonical result
// bytes keyed by the config fingerprint. Only successful results are
// cached — failures and cancellations always rerun.
//
// The in-memory tier is a strict LRU bounded at maxEntries. With a
// cache directory configured there is a second, persistent tier: every
// put is also written to disk (crash-safe write-then-rename), a miss
// falls through to a disk read (so instances sharing one directory see
// each other's results), and startup warms the index by scanning the
// directory — skipping, with a log line, any file that is corrupt or
// truncated. The disk tier is bounded at maxEntries files too, evicted
// oldest-modification-first.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	m          map[string]*list.Element
	lru        *list.List // front = most recently used

	dir string
	log *slog.Logger
	// index tracks the keys present on disk (this instance's view;
	// another daemon writing the shared directory is still found by
	// the get fallthrough even if unindexed here).
	index map[string]struct{}

	// onDiskHit, if non-nil, observes a hit in the persistent tier.
	onDiskHit func()
}

type lruEntry struct {
	key string
	val cachedResult
}

// newResultCache builds the cache; dir == "" disables the persistent
// tier. The startup scan warms the disk index and reports corrupt
// files to log.
func newResultCache(maxEntries int, dir string, log *slog.Logger) (*resultCache, error) {
	c := &resultCache{
		maxEntries: maxEntries,
		m:          make(map[string]*list.Element),
		lru:        list.New(),
		dir:        dir,
		log:        log,
		index:      make(map[string]struct{}),
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	if err := c.warm(); err != nil {
		return nil, err
	}
	return c, nil
}

// warm scans the cache directory, validating each entry's header and
// indexing the well-formed ones. Corrupt or truncated files are
// skipped and logged, never fatal; stale temp files from a crashed
// writer are removed.
func (c *resultCache) warm() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("serve: cache dir scan: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			_ = os.Remove(filepath.Join(c.dir, name))
			continue
		}
		if !strings.HasSuffix(name, cacheFileExt) {
			continue
		}
		key := strings.TrimSuffix(name, cacheFileExt)
		if _, err := c.readFile(key); err != nil {
			c.logf("skipping corrupt cache file", "file", name, "err", err)
			continue
		}
		c.index[key] = struct{}{}
	}
	c.logf("cache warmed", "dir", c.dir, "entries", len(c.index))
	return nil
}

func (c *resultCache) logf(msg string, args ...any) {
	if c.log != nil {
		c.log.Info(msg, args...)
	}
}

// Cache-lookup tiers, reported by getTier and carried as the "tier"
// label on the serve.cache_lookup_ns histogram and the cache_lookup
// span attribute.
const (
	tierMemory = "memory"
	tierDisk   = "disk"
	tierMiss   = "miss"
)

// get returns the entry for key, consulting memory first and then the
// persistent tier. A disk hit is promoted into the memory LRU.
func (c *resultCache) get(key string) (cachedResult, bool) {
	v, _, ok := c.getTier(key)
	return v, ok
}

// getTier is get plus which tier answered: tierMemory, tierDisk, or
// tierMiss.
func (c *resultCache) getTier(key string) (cachedResult, string, bool) {
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*lruEntry).val
		c.mu.Unlock()
		return v, tierMemory, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return cachedResult{}, tierMiss, false
	}
	v, err := c.readFile(key)
	if err != nil {
		return cachedResult{}, tierMiss, false
	}
	if c.onDiskHit != nil {
		c.onDiskHit()
	}
	c.insertMem(key, v)
	return v, tierDisk, true
}

// put stores an entry in both tiers. Re-putting an existing key is a
// no-op for the stored bytes (results are content-addressed, so equal
// keys mean equal bytes).
func (c *resultCache) put(key string, result, attr []byte) {
	v := cachedResult{result: result, attr: attr}
	if !c.insertMem(key, v) {
		return
	}
	if c.dir == "" {
		return
	}
	if err := c.writeFile(key, v); err != nil {
		c.logf("cache write failed", "key", key, "err", err)
		return
	}
	c.mu.Lock()
	c.index[key] = struct{}{}
	evict := len(c.index) > c.maxEntries
	c.mu.Unlock()
	if evict {
		c.evictDisk()
	}
}

// insertMem adds an entry to the memory LRU, evicting the
// least-recently-used beyond the bound. It reports false when the key
// was already present.
func (c *resultCache) insertMem(key string, v cachedResult) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return false
	}
	c.m[key] = c.lru.PushFront(&lruEntry{key: key, val: v})
	for len(c.m) > c.maxEntries {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*lruEntry).key)
	}
	return true
}

// len returns the memory-tier entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// diskLen returns the persistent-tier entry count (this instance's
// index).
func (c *resultCache) diskLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// path returns the entry file for a key. Keys are hex fingerprints;
// anything else is rejected by readFile's key check, and the filepath
// join keeps traversal out regardless.
func (c *resultCache) path(key string) string {
	return filepath.Join(c.dir, key+cacheFileExt)
}

// readFile loads and fully validates one disk entry: header shape, key
// match, exact payload lengths, checksum, and no trailing bytes.
func (c *resultCache) readFile(key string) (cachedResult, error) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return cachedResult{}, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return cachedResult{}, fmt.Errorf("header: %w", err)
	}
	var h cacheHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return cachedResult{}, fmt.Errorf("header: %w", err)
	}
	if h.V != 1 {
		return cachedResult{}, fmt.Errorf("unsupported version %d", h.V)
	}
	if h.Key != key {
		return cachedResult{}, fmt.Errorf("key %q does not match filename", h.Key)
	}
	if h.ResultLen <= 0 || h.AttrLen < 0 || h.ResultLen > 1<<30 || h.AttrLen > 1<<30 {
		return cachedResult{}, fmt.Errorf("implausible lengths %d/%d", h.ResultLen, h.AttrLen)
	}
	payload := make([]byte, h.ResultLen+h.AttrLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return cachedResult{}, fmt.Errorf("payload: %w", err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		return cachedResult{}, fmt.Errorf("trailing bytes after payload")
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != h.Sum {
		return cachedResult{}, fmt.Errorf("checksum mismatch")
	}
	v := cachedResult{result: payload[:h.ResultLen:h.ResultLen]}
	if h.AttrLen > 0 {
		v.attr = payload[h.ResultLen:]
	}
	return v, nil
}

// writeFile persists one entry crash-safely: the bytes go to a temp
// file in the same directory, then rename publishes them atomically. A
// reader never sees a partial entry; a crash leaves only a .tmp- file
// the next warm scan removes.
func (c *resultCache) writeFile(key string, v cachedResult) error {
	payload := make([]byte, 0, len(v.result)+len(v.attr))
	payload = append(payload, v.result...)
	payload = append(payload, v.attr...)
	sum := sha256.Sum256(payload)
	header, err := json.Marshal(cacheHeader{
		V: 1, Key: key,
		ResultLen: len(v.result), AttrLen: len(v.attr),
		Sum: hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err = f.Write(append(append(header, '\n'), payload...)); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// evictDisk trims the persistent tier to maxEntries files, removing
// the oldest-modified first. Best-effort: another daemon sharing the
// directory may race the removals, and that is fine — the loser's os.Remove just
// fails on an already-gone file.
func (c *resultCache) evictDisk() {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	type aged struct {
		key  string
		mod  int64
		name string
	}
	var files []aged
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), cacheFileExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{
			key:  strings.TrimSuffix(e.Name(), cacheFileExt),
			mod:  info.ModTime().UnixNano(),
			name: e.Name(),
		})
	}
	if len(files) <= c.maxEntries {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	drop := files[:len(files)-c.maxEntries]
	c.mu.Lock()
	for _, f := range drop {
		delete(c.index, f.key)
	}
	c.mu.Unlock()
	for _, f := range drop {
		_ = os.Remove(filepath.Join(c.dir, f.name))
	}
}
