package runner

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bbrnash/internal/scenario"
)

type fakeResult struct {
	Throughput float64
	Drops      int
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache()
	var out fakeResult
	if c.Get("k", &out) {
		t.Fatal("empty cache hit")
	}
	want := fakeResult{Throughput: 12.5, Drops: 3}
	c.Put("k", want)
	if !c.Get("k", &out) || out != want {
		t.Fatalf("Get = %+v, want %+v", out, want)
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.Len() != 1 {
		t.Errorf("hits/misses/len = %d/%d/%d, want 1/1/1", c.Hits(), c.Misses(), c.Len())
	}
	if r := c.HitRate(); r != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", r)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	var out fakeResult
	if c.Get("k", &out) {
		t.Error("nil cache hit")
	}
	c.Put("k", out) // must not panic
	if err := c.Save(); err != nil {
		t.Error(err)
	}
	if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Error("nil cache should report zeros")
	}
}

func TestCacheFloatRoundTripExact(t *testing.T) {
	// Cached results must replay bit-for-bit: Go's JSON encoder emits the
	// shortest representation that round-trips exactly.
	c := NewCache()
	values := []float64{1.0 / 3.0, 6.25e7, 0x1.fffffffffffffp+1023, 5e-324}
	c.Put("f", values)
	var got []float64
	if !c.Get("f", &got) {
		t.Fatal("miss")
	}
	for i := range values {
		if got[i] != values[i] {
			t.Errorf("value %d: %x != %x", i, got[i], values[i])
		}
	}
}

func TestCacheDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", fakeResult{Throughput: 1})
	c.Put("b", fakeResult{Throughput: 2})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	re, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", re.Len())
	}
	var out fakeResult
	if !re.Get("b", &out) || out.Throughput != 2 {
		t.Errorf("reopened Get(b) = %+v", out)
	}
	// Save with no changes must be a no-op (file untouched).
	before, _ := os.Stat(path)
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("clean Save rewrote the store")
	}
}

// TestOpenCacheSkipsUnrecognizedVersions: opening a store with a
// recognized-version set drops entries from other key generations (and
// keys with no version field at all), and the next Save prunes them from
// disk.
func TestOpenCacheSkipsUnrecognizedVersions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("scenario|v2|cap=1|g=bbr:1:1:0", fakeResult{Throughput: 1})
	c.Put("mix|v1|cap=1|nx=1", fakeResult{Throughput: 2})
	c.Put("unversioned", fakeResult{Throughput: 3})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	re, err := OpenCache(path, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", re.Len())
	}
	var out fakeResult
	if !re.Get("scenario|v2|cap=1|g=bbr:1:1:0", &out) || out.Throughput != 1 {
		t.Errorf("recognized entry lost: %+v", out)
	}
	if re.Get("mix|v1|cap=1|nx=1", &out) {
		t.Error("v1 entry served despite unrecognized version")
	}
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 1 {
		t.Errorf("Save kept %d entries, want the 1 recognized", re2.Len())
	}
}

func TestOpenCacheMissingAndEmptyPath(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || c.Len() != 0 {
		t.Fatalf("missing file: %v, len %d", err, c.Len())
	}
	if err := c.Save(); err != nil {
		t.Fatal(err) // dirty=false, no entries: still fine
	}
	c2, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(); err != nil {
		t.Error("in-memory Save should be a no-op")
	}
}

func TestOpenCacheCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(path); err == nil {
		t.Error("corrupt store accepted")
	}
}

func TestCacheSchemaMismatchIsMiss(t *testing.T) {
	c := NewCache()
	c.Put("k", "a string, not an object")
	var out fakeResult
	if c.Get("k", &out) {
		t.Error("incompatible stored value should miss")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := "shared"
				var out fakeResult
				if !c.Get(key, &out) {
					c.Put(key, fakeResult{Throughput: 42})
				} else if out.Throughput != 42 {
					t.Errorf("read %v", out)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheCorruptEntryEvictedAndRecomputed: a corrupt on-disk entry
// must (a) miss without disturbing the caller's destination, (b) be
// evicted so the recomputed value can be stored, and (c) round-trip the
// recompute bit-identically through Save and reopen.
func TestCacheCorruptEntryEvictedAndRecomputed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	// "Drops" is a string where the schema wants an int: the entry decodes
	// as JSON but not into fakeResult.
	corrupt := `{"k": {"Throughput": 1.5, "Drops": "bad"}}`
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	// Pre-fill the destination: a corrupt hit must not leak partial fields
	// into it.
	out := fakeResult{Throughput: 99, Drops: 7}
	if c.Get("k", &out) {
		t.Fatal("corrupt entry reported as a hit")
	}
	if (out != fakeResult{Throughput: 99, Drops: 7}) {
		t.Errorf("destination mutated by failed decode: %+v", out)
	}
	if c.Len() != 0 {
		t.Errorf("corrupt entry not evicted: Len = %d", c.Len())
	}

	// Recompute, store, persist, reopen: the replacement must replay
	// bit-identically.
	want := fakeResult{Throughput: 1.0 / 3.0, Drops: 3}
	c.Put("k", want)
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	re, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var got fakeResult
	if !re.Get("k", &got) || got != want {
		t.Errorf("reopened Get = %+v, want %+v", got, want)
	}
}

// TestCacheInvalidDestinationDoesNotEvict: a nil or non-pointer
// destination is a caller bug, not a corrupt entry — the stored value
// must survive.
func TestCacheInvalidDestinationDoesNotEvict(t *testing.T) {
	c := NewCache()
	c.Put("k", fakeResult{Throughput: 1})
	if c.Get("k", nil) {
		t.Error("nil destination hit")
	}
	if c.Get("k", fakeResult{}) {
		t.Error("non-pointer destination hit")
	}
	if c.Len() != 1 {
		t.Errorf("valid entry evicted on caller error: Len = %d", c.Len())
	}
	var out fakeResult
	if !c.Get("k", &out) || out.Throughput != 1 {
		t.Errorf("entry lost: %+v", out)
	}
}

// TestCacheSaveFileMode: a fresh store is world-readable (0644, less
// umask is not applied by Chmod), and Save preserves the mode of an
// existing store the operator may have tightened.
func TestCacheSaveFileMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", fakeResult{Throughput: 1})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("fresh store mode = %o, want 0644", fi.Mode().Perm())
	}

	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	c.Put("k2", fakeResult{Throughput: 2})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Errorf("tightened store mode = %o, want 0600 preserved", fi.Mode().Perm())
	}
}

// TestOpenCacheStaleVersionsPrunedUnderV5: the concrete migrations this
// repo shipped — stores written under key generations v3 (before the
// execution backend entered the canonical key) and v4 (before scenarios
// grew link topologies) opened by a binary recognizing only
// scenario.KeyVersion (v5) serve nothing, and the next Save prunes the
// stale entries from disk. Guards against pre-topology results silently
// answering v5 queries.
func TestOpenCacheStaleVersionsPrunedUnderV5(t *testing.T) {
	if scenario.KeyVersion != "v5" {
		t.Fatalf("scenario.KeyVersion = %q; update this migration test", scenario.KeyVersion)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	staleKeys := []string{
		"scenario|v3|cap=0x1.908b1p+25|buf=0x1p+20|mss=0x1.77p+10|aj=0|sj=0|dur=10000000000|seed=1|fl=0|al=0|fp=0|fd=0|be=0|bl=0|g=bbr:1:40000000:0",
		"scenario|v4|bk=packet|cap=0x1.908b1p+25|buf=0x1p+20|mss=0x1.77p+10|aj=0|sj=0|dur=10000000000|seed=1|fl=0x0p+00|al=0x0p+00|fp=0|fd=0x0p+00|be=0|bl=0|g=bbr:1:40000000:0",
	}
	for i, k := range staleKeys {
		c.Put(k, fakeResult{Throughput: float64(i + 5)})
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c.Close()

	re, err := OpenCache(path, scenario.KeyVersion)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var out fakeResult
	for _, k := range staleKeys {
		if re.Get(k, &out) {
			t.Errorf("stale entry served under v5: %s", k)
		}
	}
	if re.Len() != 0 {
		t.Errorf("reopened Len = %d, want 0", re.Len())
	}
	re.Put("scenario|v5|fresh", fakeResult{Throughput: 6})
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "scenario|v3|") || strings.Contains(string(data), "scenario|v4|") {
		t.Error("Save left stale-generation entries on disk")
	}
}

// TestOpenCacheDropsNullValues: a stored null decodes into any destination
// without error, so serving it would return a zero result as a hit. Opening
// drops it, Get and GetRaw miss, and the next Save prunes it from disk.
func TestOpenCacheDropsNullValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	const store = `{"scenario|v5|null": null, "scenario|v5|spaced":  null , "scenario|v5|ok": {"Throughput": 4}}`
	if err := os.WriteFile(path, []byte(store), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	var out fakeResult
	for _, key := range []string{"scenario|v5|null", "scenario|v5|spaced"} {
		if c.Get(key, &out) {
			t.Errorf("Get(%s) served a null value as %+v", key, out)
		}
		if raw, ok := c.GetRaw(key); ok {
			t.Errorf("GetRaw(%s) served %s", key, raw)
		}
	}
	if !c.Get("scenario|v5|ok", &out) || out.Throughput != 4 {
		t.Errorf("the non-null entry was lost: %+v", out)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "null") {
		t.Errorf("Save kept the null entries:\n%s", data)
	}
}

// TestOpenCacheRefusesBareNull: a store that is the single value null is
// not an object; it unmarshals without error into no map at all.
func TestOpenCacheRefusesBareNull(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("null"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := OpenCache(path); err == nil {
		c.Close()
		t.Fatal("a bare null store opened")
	}
}

// TestCachePutDropsNull: Put never stores a value that encodes as null.
func TestCachePutDropsNull(t *testing.T) {
	c := NewCache()
	c.Put("k", nil)
	c.Put("p", (*fakeResult)(nil))
	if c.Len() != 0 {
		t.Errorf("Put stored %d null values", c.Len())
	}
}
