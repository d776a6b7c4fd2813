package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type journalResult struct {
	Rate float64 `json:"rate"`
	Runs int     `json:"runs"`
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "journal.jsonl")
}

// TestJournalRoundTrip: recorded entries survive close and reopen, and Get
// decodes exactly what Record stored.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := journalResult{Rate: 0.1 + 0.2, Runs: 9} // non-representable float round-trips
	if err := j.Record("scenario|v3|a", want); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("scenario|v3|b", journalResult{Rate: 1, Runs: 1}); err != nil {
		t.Fatal(err)
	}
	if !j.Has("scenario|v3|a") || j.Has("scenario|v3|missing") {
		t.Error("Has wrong before reopen")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", j2.Len())
	}
	var got journalResult
	if !j2.Get("scenario|v3|a", &got) {
		t.Fatal("reopened journal misses recorded key")
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if j2.Hits() != 1 {
		t.Errorf("Hits = %d, want 1", j2.Hits())
	}
}

// TestJournalTornTail: a crash mid-write leaves a truncated final line; the
// journal loads every complete entry, drops the torn bytes, and the
// compacted file is clean JSONL again.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"scenario|v3|a", "scenario|v3|b"} {
		if err := j.Record(k, journalResult{Rate: 2, Runs: 3}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate SIGKILL mid-Record: append half a line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"scenario|v3|c","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 2 || !j2.Has("scenario|v3|a") || !j2.Has("scenario|v3|b") {
		t.Fatalf("after torn tail: Len = %d", j2.Len())
	}
	if j2.Has("scenario|v3|c") {
		t.Error("torn entry resurrected")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("compacted journal holds invalid line %q", line)
		}
	}
}

// TestJournalVersionFilter: entries from an older key generation are
// dropped on open, exactly like OpenCache's version filter, and the
// compaction removes them from disk.
func TestJournalVersionFilter(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("scenario|v2|old", journalResult{Rate: 1})
	j.Record("scenario|v3|new", journalResult{Rate: 2})
	j.Close()

	j2, err := OpenJournal(path, "v3")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Has("scenario|v2|old") {
		t.Error("v2 entry served from a v3 journal")
	}
	if !j2.Has("scenario|v3|new") {
		t.Error("v3 entry lost")
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), "v2|old") {
		t.Error("compaction left the v2 entry on disk")
	}
}

// TestJournalLastEntryWins: a key recorded twice keeps its latest value.
func TestJournalLastEntryWins(t *testing.T) {
	path := journalPath(t)
	j, _ := OpenJournal(path)
	j.Record("scenario|v3|k", journalResult{Runs: 1})
	j.Record("scenario|v3|k", journalResult{Runs: 2})
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got journalResult
	if !j2.Get("scenario|v3|k", &got) || got.Runs != 2 {
		t.Errorf("got %+v, want Runs=2", got)
	}
	if j2.Len() != 1 {
		t.Errorf("Len = %d, want 1", j2.Len())
	}
}

// TestJournalNilSafe: a nil journal accepts every call and never hits —
// the no-resume path costs callers nothing.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Record("k", 1); err != nil {
		t.Error(err)
	}
	var out int
	if j.Has("k") || j.Get("k", &out) || j.Len() != 0 || j.Hits() != 0 {
		t.Error("nil journal not inert")
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if j2, err := OpenJournal(""); err != nil || j2 != nil {
		t.Errorf("OpenJournal(\"\") = %v, %v; want nil, nil", j2, err)
	}
}

// TestJournalConcurrent: concurrent Records and Gets are safe and all
// entries land.
func TestJournalConcurrent(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := "scenario|v3|" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			if err := j.Record(key, journalResult{Runs: i}); err != nil {
				t.Error(err)
			}
			var out journalResult
			j.Get(key, &out)
		}(i)
	}
	wg.Wait()
	j.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != n {
		t.Errorf("Len = %d, want %d", j2.Len(), n)
	}
}

// TestJournalSchemaMismatchKeptInPlace: unlike the cache, a journal entry
// that fails to decode stays on disk — Get just reports a miss.
func TestJournalSchemaMismatchKeptInPlace(t *testing.T) {
	path := journalPath(t)
	j, _ := OpenJournal(path)
	j.Record("scenario|v3|k", "a string, not a struct")
	var out journalResult
	if j.Get("scenario|v3|k", &out) {
		t.Error("mismatched schema decoded")
	}
	if !j.Has("scenario|v3|k") {
		t.Error("mismatched entry evicted from journal")
	}
	j.Close()
}

// TestOpenJournalDropsNullValues: a line whose value is null would make Get
// serve a zero value as a hit; a line with no value would make Has report a
// key that Get misses, so a resumed run would neither replay nor repair it.
// Opening drops both, and compaction prunes them from the file.
func TestOpenJournalDropsNullValues(t *testing.T) {
	path := journalPath(t)
	lines := `{"key":"scenario|v5|null","value":null}
{"key":"scenario|v5|absent"}
{"key":"scenario|v5|ok","value":{"rate":1,"runs":2}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var out journalResult
	for _, key := range []string{"scenario|v5|null", "scenario|v5|absent"} {
		if j.Has(key) {
			t.Errorf("Has(%s) after a null or missing value", key)
		}
		if j.Get(key, &out) {
			t.Errorf("Get(%s) served %+v", key, out)
		}
	}
	if !j.Get("scenario|v5|ok", &out) || out.Runs != 2 {
		t.Errorf("the non-null entry was lost: %+v", out)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 1 || strings.Contains(string(data), "null") {
		t.Errorf("compaction kept the null entries:\n%s", data)
	}
}

// TestJournalRecordRefusesNull: Record never writes a null value.
func TestJournalRecordRefusesNull(t *testing.T) {
	j, err := OpenJournal(journalPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Record("scenario|v5|k", nil); err == nil {
		t.Error("Record accepted a null value")
	}
	if j.Has("scenario|v5|k") {
		t.Error("the refused null value was stored")
	}
}
