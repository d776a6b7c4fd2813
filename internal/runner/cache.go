package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
)

// Cache memoizes experiment results by canonical scenario key. Values are
// stored as JSON so one cache can hold heterogeneous result types (mix
// runs, group runs) under namespaced keys, and so the in-memory map and the
// optional on-disk store share one representation.
//
// Because every cached unit is a deterministic function of its key, a
// concurrent duplicate computation is harmless: both goroutines store the
// same bytes. Methods are safe for concurrent use; a nil *Cache is valid
// and never hits.
type Cache struct {
	mu    sync.RWMutex
	m     map[string]json.RawMessage
	path  string
	dirty bool
	lock  *fileLock

	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns an empty in-memory cache with no backing file.
func NewCache() *Cache {
	return &Cache{m: make(map[string]json.RawMessage)}
}

// OpenCache returns a cache backed by the JSON store at path, loading any
// existing entries. A missing file is an empty cache; Save writes back to
// the same path. An empty path is equivalent to NewCache.
//
// Opening takes an exclusive advisory lock on a sibling "<path>.lock" file,
// held until Close (or process exit — the lock is kernel-released even on
// SIGKILL): two processes sharing one store would otherwise interleave
// their Saves and silently lose entries. A second open fails with
// ErrStoreLocked.
//
// When recognized key versions are given (e.g. scenario.KeyVersion),
// entries whose key does not carry one of them in its version field — the
// second |-separated segment, "v3" in "scenario|v3|…" — are skipped and
// logged instead of silently mixing cache generations: a store written
// before a key-format or semantics bump must not serve stale results.
// Entries whose value is JSON null are skipped and logged the same way: no
// result the program stores is null, and decoding one would serve a zero
// result as a hit. The skipped entries are dropped from the store on the
// next Save.
func OpenCache(path string, recognized ...string) (*Cache, error) {
	c := NewCache()
	if path == "" {
		return c, nil
	}
	c.path = path
	lock, err := acquireLock(path)
	if err != nil {
		return nil, err
	}
	c.lock = lock
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		lock.release()
		return nil, fmt.Errorf("runner: reading cache: %w", err)
	}
	if err := json.Unmarshal(data, &c.m); err != nil {
		lock.release()
		return nil, fmt.Errorf("runner: cache %s is not a JSON object: %w", path, err)
	}
	if c.m == nil {
		// A bare null unmarshals without error and leaves no map.
		lock.release()
		return nil, fmt.Errorf("runner: cache %s is not a JSON object: null", path)
	}
	nulls := 0
	for key, raw := range c.m {
		if isNull(raw) {
			delete(c.m, key)
			nulls++
		}
	}
	if nulls > 0 {
		c.dirty = true
		log.Printf("runner: cache %s: skipped %d entries with a null value", path, nulls)
	}
	if len(recognized) > 0 {
		skipped := 0
		for key := range c.m {
			if !versionRecognized(key, recognized) {
				delete(c.m, key)
				skipped++
			}
		}
		if skipped > 0 {
			c.dirty = true
			log.Printf("runner: cache %s: skipped %d entries with unrecognized key version (recognized: %s)",
				path, skipped, strings.Join(recognized, ", "))
		}
	}
	return c, nil
}

// isNull reports whether a stored value is absent or JSON null, which no
// store may serve.
func isNull(raw json.RawMessage) bool {
	v := bytes.TrimSpace(raw)
	return len(v) == 0 || string(v) == "null"
}

// versionRecognized reports whether key's version field (the second
// |-separated segment) is one of the recognized versions. Keys without a
// version field are never recognized.
func versionRecognized(key string, recognized []string) bool {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) < 3 {
		return false
	}
	for _, v := range recognized {
		if parts[1] == v {
			return true
		}
	}
	return false
}

// Get looks key up and, when present, unmarshals the stored value into out,
// returning true. Hit and miss counts are tracked for reporting. A value
// that no longer unmarshals (e.g. an on-disk store written by an older
// result schema) counts as a miss and is evicted, so the recomputed result
// replaces the stale bytes on the next Put/Save instead of shadowing them
// forever. Decoding goes through a scratch value, so a failed unmarshal
// never leaves out partially populated.
func (c *Cache) Get(key string, out any) bool {
	if c == nil {
		return false
	}
	c.mu.RLock()
	raw, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		dst := reflect.ValueOf(out)
		if dst.Kind() != reflect.Pointer || dst.IsNil() {
			// Invalid destination; the entry itself may be fine, so
			// leave it in place.
			c.misses.Add(1)
			return false
		}
		scratch := reflect.New(dst.Type().Elem())
		if json.Unmarshal(raw, scratch.Interface()) == nil {
			dst.Elem().Set(scratch.Elem())
			c.hits.Add(1)
			return true
		}
		// The entry cannot serve this schema; delete it under the write
		// lock — unless a concurrent Put already replaced it with fresh
		// bytes — and mark the store dirty so Save drops it.
		c.mu.Lock()
		if cur, still := c.m[key]; still && string(cur) == string(raw) {
			delete(c.m, key)
			c.dirty = true
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	return false
}

// GetRaw looks key up and returns the stored JSON verbatim. The serve layer
// uses it to answer cache hits with exactly the bytes Put recorded —
// json.Marshal of the result value — so every reader of one key sees one
// byte sequence, whichever path produced it. Callers must treat the bytes
// as read-only. Hit/miss accounting matches Get.
func (c *Cache) GetRaw(key string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	raw, ok := c.m[key]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return raw, true
}

// Put stores v under key, replacing any previous entry. Unmarshalable
// values, and values that encode as null, are dropped silently: a cache
// failure must never fail the experiment.
func (c *Cache) Put(key string, v any) {
	if c == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil || isNull(raw) {
		return
	}
	c.mu.Lock()
	c.m[key] = raw
	c.dirty = true
	c.mu.Unlock()
}

// Len reports the number of stored entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Hits reports how many Gets were served from the cache.
func (c *Cache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses reports how many Gets found nothing.
func (c *Cache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// HitRate reports Hits / (Hits + Misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	h, m := c.Hits(), c.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Save writes the store back to the path it was opened from with
// WriteFileAtomic, so a crash (or power loss) at any instant leaves either
// the complete old store or the complete new one, never a torn mix, and an
// existing store keeps its permission bits (a new one is 0644). Save is a
// no-op for purely in-memory caches and when nothing changed since open.
func (c *Cache) Save() error {
	if c == nil || c.path == "" {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil
	}
	data, err := json.MarshalIndent(c.m, "", "\t")
	if err != nil {
		return fmt.Errorf("runner: encoding cache: %w", err)
	}
	if err := WriteFileAtomic(c.path, data); err != nil {
		return err
	}
	c.dirty = false
	return nil
}

// Close releases the advisory store lock taken by OpenCache so another
// process (or a later open in this one) can use the store. It does not
// Save — callers persist first, then Close. In-memory caches and repeated
// Closes are no-ops; the lock is also released by process exit, so a
// crashed holder never wedges the store.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lock.release()
	c.lock = nil
	return nil
}
