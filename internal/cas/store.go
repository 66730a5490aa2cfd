// Persistent static-score store for incremental delta scans.
//
// The store memoizes static similarity scores on disk keyed by
// (CVE, query mode, function content address), versioned by the model hash
// from the run manifest. Rescanning a firmware update then only pays for
// functions whose content actually changed; everything else is answered
// from disk.
//
// The store is an optimization, never an authority: a missing, truncated,
// corrupted or key-mismatched entry is a miss (recompute), and an entry
// written under a different model hash is an invalidation (recompute) — in
// no case can a bad entry surface as a wrong score. Dynamic outcomes and
// verdicts are deliberately NOT persisted: they are recomputed, or shared
// in memory through the dedup tables of the scanner's reference cache
// (patchecko.RefCache) — within one analyzer, or across every job of the
// resident daemon, which gives all its jobs one cache. That keeps the
// on-disk format trivial to audit and the delta-scan accounting exact.

package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultinject"
)

// Status classifies one store consult.
type Status int

// Consult outcomes.
const (
	StatusMiss        Status = iota // no usable entry: compute and Put
	StatusHit                       // entry found, current model: use the score
	StatusInvalidated               // entry found but written by another model
)

func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusInvalidated:
		return "invalidated"
	}
	return "miss"
}

// entryFile is the on-disk JSON envelope. The key is stored verbatim and
// verified on read, so a (vanishingly unlikely) filename-hash collision or a
// file copied between stores degrades to a miss instead of a wrong score.
type entryFile struct {
	Model string  `json:"model"`
	Key   string  `json:"key"`
	Score float64 `json:"score"`
}

// Store is a bounded, corruption-tolerant directory of score entries, one
// JSON file per key. Safe for concurrent use by multiple goroutines; writes
// are atomic (temp file + rename), so concurrent readers — including other
// Store instances on the same directory — always see a complete entry or
// none.
type Store struct {
	dir       string
	modelHash string
	maxBytes  int64

	mu   sync.Mutex
	size int64 // bytes currently on disk (entry files only)
}

// DefaultMaxBytes bounds a store when the caller does not choose a budget.
const DefaultMaxBytes = 64 << 20

// Open opens (creating if needed) a store rooted at dir for the model
// identified by modelHash (the manifest's "sha256:..." string). maxBytes
// bounds the on-disk size; <= 0 selects DefaultMaxBytes. Entries written by
// other model versions stay on disk but answer as invalidated until
// overwritten.
func Open(dir, modelHash string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	s := &Store{dir: dir, modelHash: modelHash, maxBytes: maxBytes}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cas: open store: %w", err)
	}
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		if info, err := de.Info(); err == nil {
			s.size += info.Size()
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Size returns the bytes of entry files currently accounted on disk.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// path maps a key to its entry file. Keys are arbitrary strings, so the
// filename is the key's digest, not the key itself.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// GetScore looks the key up. Only StatusHit carries a usable score; every
// failure mode — absent, unreadable, truncated, unparsable, key mismatch,
// non-finite score — is StatusMiss, and a well-formed entry written by a
// different model is StatusInvalidated.
func (s *Store) GetScore(key string) (float64, Status) {
	if faultinject.Fire(faultinject.StoreReadFail, key) != nil {
		return 0, StatusMiss
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return 0, StatusMiss
	}
	var ent entryFile
	if err := json.Unmarshal(raw, &ent); err != nil {
		return 0, StatusMiss
	}
	if ent.Key != key || math.IsNaN(ent.Score) || math.IsInf(ent.Score, 0) {
		return 0, StatusMiss
	}
	if ent.Model != s.modelHash {
		return 0, StatusInvalidated
	}
	return ent.Score, StatusHit
}

// PutScore records a score for the key under the store's model hash.
// Storage failures are deliberately silent: the store is an optimization
// and a failed write only costs a future recompute. Non-finite scores are
// never persisted.
func (s *Store) PutScore(key string, score float64) {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return
	}
	data, err := json.Marshal(entryFile{Model: s.modelHash, Key: key, Score: score})
	if err != nil || int64(len(data)) > s.maxBytes {
		return
	}
	path := s.path(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	var oldSize int64
	if info, err := os.Stat(path); err == nil {
		oldSize = info.Size()
	}
	if s.size-oldSize+int64(len(data)) > s.maxBytes {
		s.evictLocked(s.maxBytes-int64(len(data))+oldSize, path)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.size += int64(len(data)) - oldSize
}

// evictLocked deletes entry files, oldest modification time first (name as
// the tie-break), until the accounted size is at or below target. keep is
// never evicted — it is the entry about to be rewritten. Callers hold s.mu.
func (s *Store) evictLocked(target int64, keep string) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type victim struct {
		path  string
		size  int64
		mtime int64
	}
	var victims []victim
	for _, de := range entries {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		path := filepath.Join(s.dir, de.Name())
		if path == keep {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		victims = append(victims, victim{path: path, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].mtime != victims[j].mtime {
			return victims[i].mtime < victims[j].mtime
		}
		return victims[i].path < victims[j].path
	})
	for _, v := range victims {
		if s.size <= target {
			return
		}
		if err := os.Remove(v.path); err == nil || os.IsNotExist(err) {
			s.size -= v.size
		}
	}
}
