package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
)

// Journal is a crash-safe write-ahead log of completed experiment units:
// one JSON line {"key":…,"value":…} per unit, fsynced as it is recorded, so
// a sweep killed mid-flight — SIGKILL included — loses at most the unit in
// progress. Re-opening the journal and passing it back into the sweep
// replays the completed units without re-simulating them; because every
// unit is a deterministic function of its key, the resumed run's output is
// byte-identical to an uninterrupted one.
//
// The Journal differs from Cache where their jobs differ: a cache is an
// optimization whose failures must never fail the experiment, while the
// journal is a durability promise — Record reports write errors so the
// caller knows resumption is no longer covered. Methods are safe for
// concurrent use; a nil *Journal is valid and never hits.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	m    map[string]json.RawMessage
	lock *fileLock

	hits atomic.Int64
}

// journalLine is the on-disk record format.
type journalLine struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// OpenJournal opens (or creates) the journal at path and loads its
// completed entries. A torn final line — the signature of a crash mid-write
// — is tolerated: entries up to it load and the tail is truncated away.
// When recognized key versions are given (see OpenCache), entries from
// other key generations are dropped. Lines whose value is null or absent
// are dropped and logged: Record never writes one, and keeping one would
// make Has report a key that Get cannot serve, so a resumed run would
// neither replay nor repair it. After filtering, the file is compacted in
// place (atomically, temp file + rename) so stale, null and torn bytes do
// not accumulate across resumes. An empty path returns a nil journal,
// which is valid and inert.
//
// Like OpenCache, opening takes an exclusive advisory lock on a sibling
// "<path>.lock" file, held until Close or process exit: two processes
// appending to one journal would interleave records and corrupt each
// other's durability promise, so the second open fails with ErrStoreLocked
// instead. The kernel releases the lock when the holder dies — SIGKILL
// included — so a crashed sweep's journal is immediately resumable.
func OpenJournal(path string, recognized ...string) (*Journal, error) {
	if path == "" {
		return nil, nil
	}
	lock, err := acquireLock(path)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Journal, error) {
		lock.release()
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fail(fmt.Errorf("runner: reading journal: %w", err))
	}
	j := &Journal{m: make(map[string]json.RawMessage), lock: lock}
	nulls := 0
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalLine
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			// A torn or foreign line; everything before it already
			// loaded, and compaction below drops it.
			continue
		}
		if len(recognized) > 0 && !versionRecognized(rec.Key, recognized) {
			continue
		}
		if isNull(rec.Value) {
			nulls++
			continue
		}
		// Last entry wins: a unit recorded twice (e.g. across a resume
		// that re-verified it) keeps its most recent bytes.
		j.m[rec.Key] = rec.Value
	}
	if nulls > 0 {
		log.Printf("runner: journal %s: skipped %d entries with a null or missing value", path, nulls)
	}

	// Compact: rewrite only the surviving entries, then reopen for append.
	// WriteFileAtomic keeps an existing file's permission bits and fsyncs
	// the directory: without that, a power loss right after compaction
	// could resurrect the pre-compaction file (which is still correct
	// JSONL, but may hold entries the caller saw dropped).
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for key, val := range j.m {
		if err := enc.Encode(journalLine{Key: key, Value: val}); err != nil {
			return fail(fmt.Errorf("runner: compacting journal: %w", err))
		}
	}
	if err := WriteFileAtomic(path, buf.Bytes()); err != nil {
		return fail(fmt.Errorf("runner: compacting journal: %w", err))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("runner: opening journal for append: %w", err))
	}
	j.f = f
	return j, nil
}

// Has reports whether key has a completed entry.
func (j *Journal) Has(key string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.m[key]
	return ok
}

// Get looks key up and, when present, unmarshals the recorded value into
// out, returning true and counting a hit. Like Cache.Get it decodes through
// a scratch value so a schema mismatch never leaves out half-filled — but
// unlike the cache a mismatched entry is left in place, since dropping
// journal entries silently would undermine the resumption promise.
func (j *Journal) Get(key string, out any) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	raw, ok := j.m[key]
	j.mu.Unlock()
	if !ok {
		return false
	}
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return false
	}
	scratch := reflect.New(dst.Type().Elem())
	if json.Unmarshal(raw, scratch.Interface()) != nil {
		return false
	}
	dst.Elem().Set(scratch.Elem())
	j.hits.Add(1)
	return true
}

// Record appends key's completed value to the log and fsyncs before
// returning, so a process killed any time after Record returns will find
// the entry on resume. Errors are reported, not swallowed: a journal that
// cannot persist must fail the unit rather than let the operator believe
// the sweep is resumable.
//
// Durability contract (tested by TestJournalRecordDurableBeforeReturn): the
// full JSON line is on disk — visible to any other reader of the file, and
// flushed through the OS by fsync — before Record returns. A power-loss
// - style kill can therefore lose only entries whose Record had not yet
// returned; acknowledged entries survive. The one non-guarantee is the
// file's *first* creation: the directory entry is made durable at the next
// OpenJournal compaction or Cache.Save in the same directory, not per
// Record — an empty journal lost to power failure is indistinguishable
// from one never started, so nothing acknowledged is lost there either.
func (j *Journal) Record(key string, v any) error {
	if j == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: journal: encoding %s: %w", key, err)
	}
	if isNull(raw) {
		return fmt.Errorf("runner: journal: %s: refusing to record a null value", key)
	}
	line, err := json.Marshal(journalLine{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("runner: journal: encoding %s: %w", key, err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		if _, err := j.f.Write(line); err != nil {
			return fmt.Errorf("runner: journal: writing %s: %w", key, err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("runner: journal: syncing %s: %w", key, err)
		}
	}
	j.m[key] = raw
	return nil
}

// Len reports how many completed entries the journal holds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.m)
}

// Hits reports how many Gets were served from the journal.
func (j *Journal) Hits() int64 {
	if j == nil {
		return 0
	}
	return j.hits.Load()
}

// Close releases the underlying file and the advisory store lock. Entries
// already recorded stay durable; Record after Close updates only the
// in-memory view.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.lock.release()
	j.lock = nil
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
