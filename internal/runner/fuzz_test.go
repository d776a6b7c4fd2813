package runner

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzStoreBytes treats the cache and journal files as the trust boundary
// they are: a store on disk may be torn by a crash, spliced by hand or
// written by another build. The input is written as a cache file and as a
// journal file, and each is opened. Opening returns a store or an error,
// never both and never a panic. Every value a store serves is non-null
// JSON that the file held under that key; a journal's Has holds exactly
// when its Get does; and a value recorded (or put and saved) comes back
// after a reopen, next to everything served before it. The seed corpus
// under testdata/fuzz/FuzzStoreBytes holds a valid store of each kind, a
// torn tail, null and missing values, spliced lines and non-JSON.
func FuzzStoreBytes(f *testing.F) {
	prev := log.Writer()
	log.SetOutput(io.Discard) // opening logs every skipped entry
	f.Cleanup(func() { log.SetOutput(prev) })
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		fuzzCache(t, filepath.Join(dir, "cache.json"), data)
		fuzzJournal(t, filepath.Join(dir, "journal.jsonl"), data)
	})
}

// probeKey is the key the fuzz records after opening; probeValue its value
// as Record and Put encode it.
const (
	probeKey   = "scenario|v5|fuzz-probe"
	probeValue = `{"runs":7}`
)

func fuzzCache(t *testing.T, path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		if c != nil {
			t.Fatalf("OpenCache returned a store and %v", err)
		}
		return
	}
	served := map[string]json.RawMessage{}
	for key, vals := range cacheHeld(data) {
		raw, ok := c.GetRaw(key)
		var viaGet json.RawMessage
		if c.Get(key, &viaGet) != ok {
			t.Fatalf("cache key %q: GetRaw hit %v, Get disagrees", key, ok)
		}
		if !ok {
			continue
		}
		checkServed(t, "cache", key, raw, vals)
		served[key] = raw
	}
	if _, ok := c.GetRaw(probeKey + "-absent"); ok {
		t.Fatal("cache served a key the file does not hold")
	}
	c.Put(probeKey, json.RawMessage(probeValue))
	if err := c.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	c.Close()
	re, err := OpenCache(path)
	if err != nil {
		t.Fatalf("reopening a saved cache: %v", err)
	}
	defer re.Close()
	served[probeKey] = json.RawMessage(probeValue)
	for key, raw := range served {
		again, ok := re.GetRaw(key)
		if !ok || !sameJSON(raw, again) {
			t.Fatalf("cache key %q: served %s before Save, %s (hit %v) after", key, raw, again, ok)
		}
	}
}

func fuzzJournal(t *testing.T, path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		if j != nil {
			t.Fatalf("OpenJournal returned a store and %v", err)
		}
		return
	}
	served := map[string]json.RawMessage{}
	for key, vals := range journalHeld(data) {
		var raw json.RawMessage
		ok := j.Get(key, &raw)
		if j.Has(key) != ok {
			t.Fatalf("journal key %q: Get hit %v, Has disagrees", key, ok)
		}
		if !ok {
			continue
		}
		checkServed(t, "journal", key, raw, vals)
		served[key] = raw
	}
	if j.Has(probeKey + "-absent") {
		t.Fatal("journal holds a key the file does not")
	}
	if err := j.Record(probeKey, json.RawMessage(probeValue)); err != nil {
		t.Fatalf("Record: %v", err)
	}
	j.Close()
	re, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopening a compacted journal: %v", err)
	}
	defer re.Close()
	served[probeKey] = json.RawMessage(probeValue)
	for key, raw := range served {
		var again json.RawMessage
		if !re.Get(key, &again) || !sameJSON(raw, again) {
			t.Fatalf("journal key %q: served %s before the reopen, %s after", key, raw, again)
		}
	}
}

// checkServed fails unless raw is non-null JSON and one of the values the
// file held under key.
func checkServed(t *testing.T, store, key string, raw json.RawMessage, held []json.RawMessage) {
	t.Helper()
	if isNull(raw) || !json.Valid(raw) {
		t.Fatalf("%s key %q: served %q", store, key, raw)
	}
	for _, v := range held {
		if bytes.Equal(v, raw) {
			return
		}
	}
	t.Fatalf("%s key %q: served %s, which the file never held under it (held %q)", store, key, raw, held)
}

// cacheHeld walks a cache file's top-level object token by token and
// returns every value it holds under each key, duplicates included.
func cacheHeld(data []byte) map[string][]json.RawMessage {
	held := map[string][]json.RawMessage{}
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return held
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return held
		}
		key, ok := tok.(string)
		if !ok {
			return held
		}
		var raw json.RawMessage
		if dec.Decode(&raw) != nil {
			return held
		}
		held[key] = append(held[key], raw)
	}
	return held
}

// journalHeld returns every value a journal file's lines hold under each
// key.
func journalHeld(data []byte) map[string][]json.RawMessage {
	held := map[string][]json.RawMessage{}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		var rec journalLine
		if json.Unmarshal(line, &rec) == nil && rec.Key != "" {
			held[rec.Key] = append(held[rec.Key], rec.Value)
		}
	}
	return held
}

// sameJSON reports whether two JSON values decode equal: rewriting a store
// may re-encode a value's whitespace and escapes, never its meaning.
// Numbers compare as their literals, which rewriting keeps and which may
// not fit a float64.
func sameJSON(a, b json.RawMessage) bool {
	decode := func(raw json.RawMessage) (any, bool) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var v any
		err := dec.Decode(&v)
		return v, err == nil
	}
	x, okX := decode(a)
	y, okY := decode(b)
	return okX && okY && reflect.DeepEqual(x, y)
}
