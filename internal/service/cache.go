package service

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
)

// Cache is the content-addressed result store: canonical-spec SHA-256 key
// → result bytes. Entries live in a bounded in-memory LRU; evictions (and
// every insert, write-through) can spill to a directory so a restarted
// daemon — or a colder, larger tier — still answers repeats without
// recomputing. Both tiers store the exact bytes the engine produced, so a
// hit is byte-identical to the miss that populated it.
type Cache struct {
	mu       sync.Mutex
	capacity int
	spillDir string

	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64      // result bytes resident in the memory tier

	// Traffic counters. A bare cache counts into detached counters; a
	// Server re-points them at its /metrics registry (wireMetrics), so the
	// series Prometheus scrapes are the ones Stats reads.
	hits, misses, diskHits, spills, probes *obs.Counter
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key    string
	result []byte
}

// CacheStats is the counter snapshot exposed by /v1/statsz.
type CacheStats struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Bytes is the result payload resident in the memory tier — the
	// entry-count LRU's actual footprint, for capacity planning.
	Bytes    int64  `json:"bytes"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	DiskHits uint64 `json:"disk_hits"`
	Spills   uint64 `json:"spills"`
	// Probes counts Probe lookups (fleet peers asking for raw bytes via
	// GET /v1/cache/{key}); probe misses are excluded from Misses and
	// HitRate.
	Probes  uint64  `json:"probes,omitempty"`
	HitRate float64 `json:"hit_rate"`
}

// NewCache returns a cache holding up to capacity entries in memory
// (capacity <= 0 selects 256), spilling to spillDir when non-empty.
func NewCache(capacity int, spillDir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = 256
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache spill dir: %w", err)
		}
	}
	return &Cache{
		capacity: capacity,
		spillDir: spillDir,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		hits:     new(obs.Counter),
		misses:   new(obs.Counter),
		diskHits: new(obs.Counter),
		spills:   new(obs.Counter),
		probes:   new(obs.Counter),
	}, nil
}

// Get returns the cached result bytes for key. A memory miss consults the
// spill directory and promotes a disk hit back into the LRU.
func (c *Cache) Get(key string) ([]byte, bool) {
	res, ok, outcome := c.lookup(key)
	outcome.Inc()
	return res, ok
}

// Probe is Get for fleet peer traffic (GET /v1/cache/{key}). It reads
// both tiers like Get but keeps the hit/miss counters untouched: those
// measure *client* traffic, the series operators alert on, and peers
// probing for keys this daemon never computed would otherwise skew the
// hit rate both ways. Probes are counted on their own; the server's
// fleet stats break out how many were served.
func (c *Cache) Probe(key string) ([]byte, bool) {
	c.probes.Inc()
	res, ok, _ := c.lookup(key)
	return res, ok
}

// lookup reads the memory tier, then the disk tier (promoting a disk hit
// back into the LRU), and names the client-traffic counter the lookup
// falls under: hits, diskHits or misses.
func (c *Cache) lookup(key string) (res []byte, ok bool, outcome *obs.Counter) {
	if !validKey(key) {
		return nil, false, c.misses
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
		res = el.Value.(*cacheEntry).result
	}
	c.mu.Unlock()
	if ok {
		return res, true, c.hits
	}
	if c.spillDir != "" {
		path := c.spillPath(key)
		if file, err := os.ReadFile(path); err == nil {
			// A spill file verifies when its header line is the one its
			// body would be written under. Anything else — truncated by a
			// crash, bit-flipped, unframed (an older daemon's), wrong
			// length — is removed and recomputed, never served.
			header, b, _ := bytes.Cut(file, []byte("\n"))
			if string(header)+"\n" == spillHeader(b) {
				c.mu.Lock()
				c.insertLocked(key, b)
				c.mu.Unlock()
				return b, true, c.diskHits
			}
			os.Remove(path)
		}
	}
	return nil, false, c.misses
}

// Put stores the result bytes under key, evicting the LRU tail past
// capacity. With a spill directory configured the entry is also written
// through to disk (synced, then renamed into place), so evictions lose
// nothing. A malformed key (see validKey) is not stored.
func (c *Cache) Put(key string, result []byte) {
	if !validKey(key) {
		return
	}
	c.mu.Lock()
	c.insertLocked(key, result)
	c.mu.Unlock()

	if c.spillDir != "" {
		if err := c.writeSpill(key, result); err == nil {
			c.spills.Inc()
		}
	}
}

// insertLocked adds or refreshes an entry, trims to capacity, and keeps
// the resident-bytes count in step with every insert, replace, and
// eviction.
func (c *Cache) insertLocked(key string, result []byte) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(result)) - int64(len(e.result))
		e.result = result
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, result: result})
	c.bytes += int64(len(result))
	for c.lru.Len() > c.capacity {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		e := tail.Value.(*cacheEntry)
		c.bytes -= int64(len(e.result))
		delete(c.entries, e.key)
	}
}

// validKey reports whether key is a cache key: the 64 lowercase hex
// digits of a SHA-256, as JobSpec.Key renders it. The cache stores and
// looks up nothing else, so a key that reaches spillPath is always one
// safe path component; any other key is a miss that touches no file.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// spillPath maps a validKey key to its spill file.
func (c *Cache) spillPath(key string) string {
	return filepath.Join(c.spillDir, key+".json")
}

// spillHeader is the first line of result's spill file: its length and
// SHA-256, which lookup checks the rest of the file against.
func spillHeader(result []byte) string {
	return fmt.Sprintf("rxld-spill %d %x\n", len(result), sha256.Sum256(result))
}

// writeSpill writes the framed entry to a temp file, syncs it and renames
// it into place, so neither a concurrent reader nor a crash leaves a torn
// result under the final name.
func (c *Cache) writeSpill(key string, result []byte) error {
	tmp, err := os.CreateTemp(c.spillDir, "spill-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append([]byte(spillHeader(result)), result...))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.spillPath(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Entries:  c.lru.Len(),
		Capacity: c.capacity,
		Bytes:    c.bytes,
		Hits:     c.hits.Value(),
		Misses:   c.misses.Value(),
		DiskHits: c.diskHits.Value(),
		Spills:   c.spills.Value(),
		Probes:   c.probes.Value(),
	}
	if total := s.Hits + s.DiskHits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits+s.DiskHits) / float64(total)
	}
	return s
}
