// Package store is a disk-backed, content-addressed, write-once record
// store: the persistence layer under the serving daemon's in-memory
// caches (docs/SERVING.md, "Persistence & sharding").
//
// Every record is addressed by a SHA-256 hex key — the exact cache keys
// internal/serve already computes — and holds immutable bytes (an
// encoded compiled artifact or a rendered response body).  Because a
// key's value is a pure function of the key, the store never needs
// update or delete semantics: a record is written once with an atomic
// tmp+rename, and a second write of the same key is a no-op.  That
// write-once discipline is what makes the store safe to share between
// replicas on one filesystem: concurrent writers of the same key race
// benignly toward identical bytes.
//
// Durability posture: records are fsynced before the rename, so a crash
// mid-write leaves only an unreadable temp file (swept at Open), never a
// readable partial record.  Reads distrust the disk anyway — every
// record carries a versioned self-describing header with a payload
// digest, and anything that fails validation (truncation, corruption, a
// foreign or future format) is quarantined out of the namespace and
// reported as a miss, so a damaged store degrades to recomputation,
// never to serving bad bytes.
//
// Capacity is a byte budget: when the namespace exceeds Options.MaxBytes
// the oldest records (by modification time; Get refreshes it, making the
// order an approximate LRU) are evicted until the namespace fits.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"predication/internal/obs"
)

// Record format: a fixed 52-byte header followed by the payload.
//
//	[0:8)   magic "PREDSTOR"
//	[8:12)  format version, big-endian uint32 (currently 1)
//	[12:20) payload length, big-endian uint64
//	[20:52) SHA-256 of the payload
//
// The header makes every record self-describing: a reader needs nothing
// but the file to decide whether it may trust the bytes.
const (
	magic       = "PREDSTOR"
	version     = 1
	headerSize  = 52
	quarantined = "quarantine"
)

// maxPayload bounds what a reader will allocate for one record: a header
// claiming more than this is corrupt by definition (the largest honest
// payloads — rendered figure bodies — are a few MiB).
const maxPayload = 1 << 30

// Options configures a store namespace.
type Options struct {
	// MaxBytes is the namespace's byte budget (headers + payloads).
	// Exceeding it evicts oldest-first until the namespace fits; <= 0
	// means unbounded.
	MaxBytes int64
	// Name prefixes the namespace's metrics (default "store").  The
	// counters are <name>_disk_hits, _disk_misses, _writes,
	// _write_errors, _quarantines, _gc_evictions, _bytes_written,
	// _bytes_evicted.
	Name string
	// Registry receives the counters; a fresh one is created when nil.
	Registry *obs.Registry
}

// Store is one on-disk namespace.  All methods are safe for concurrent
// use by multiple goroutines; concurrent processes sharing the directory
// are safe for Put/Get (atomic rename, write-once, self-validating
// reads) while the byte accounting and GC are per-process views.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	bytes   int64 // header+payload bytes of live records (this process's view)
	records int64

	hits         *obs.Counter
	misses       *obs.Counter
	writes       *obs.Counter
	writeErrors  *obs.Counter
	quarantines  *obs.Counter
	gcEvictions  *obs.Counter
	bytesWritten *obs.Counter
	bytesEvicted *obs.Counter
}

// Open creates (or reopens) the namespace rooted at dir.  Leftover temp
// files from a crashed writer are swept, and the current byte footprint
// is rebuilt by scanning the fanout directories — reopening is how a
// restarted daemon warms instantly.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if opts.Name == "" {
		opts.Name = "store"
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:          dir,
		maxBytes:     opts.MaxBytes,
		hits:         opts.Registry.Counter(opts.Name + "_disk_hits"),
		misses:       opts.Registry.Counter(opts.Name + "_disk_misses"),
		writes:       opts.Registry.Counter(opts.Name + "_writes"),
		writeErrors:  opts.Registry.Counter(opts.Name + "_write_errors"),
		quarantines:  opts.Registry.Counter(opts.Name + "_quarantines"),
		gcEvictions:  opts.Registry.Counter(opts.Name + "_gc_evictions"),
		bytesWritten: opts.Registry.Counter(opts.Name + "_bytes_written"),
		bytesEvicted: opts.Registry.Counter(opts.Name + "_bytes_evicted"),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan rebuilds the byte accounting from disk and removes temp files a
// crashed writer left behind (they are invisible to Get — only the
// rename publishes a record — so removing them is pure hygiene).
func (s *Store) scan() error {
	var bytes, records int64
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == quarantined && path != s.dir {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			os.Remove(path)
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // racing eviction by a sibling process
		}
		bytes += info.Size()
		records++
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", s.dir, err)
	}
	s.mu.Lock()
	s.bytes, s.records = bytes, records
	s.mu.Unlock()
	return nil
}

// validKey reports whether key is a SHA-256 hex digest.  The store
// refuses anything else: keys become file names, so this is also the
// path-traversal guard.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path maps a key to its record file, fanned out over the first two hex
// characters so no single directory grows unboundedly.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Put writes the record for key unless one already exists (write-once).
// The write is atomic — payload and header land in a temp file, fsync,
// rename — so readers and a crash can only ever observe a complete
// record or none.  Errors are counted and returned; callers treat them
// as non-fatal (the disk layer is an accelerator, not a dependency).
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		s.writeErrors.Inc()
		return fmt.Errorf("store: invalid key %q", key)
	}
	final := s.path(key)
	if _, err := os.Stat(final); err == nil {
		return nil // write-once: the content for this key is already down
	}
	published, err := s.put(key, final, payload)
	if err != nil {
		s.writeErrors.Inc()
		return err
	}
	if !published {
		return nil // a concurrent writer of the same key won the race
	}
	s.writes.Inc()
	size := int64(headerSize + len(payload))
	s.bytesWritten.Add(size)
	s.gc(final)
	return nil
}

// put stages the record in a temp file and publishes it with a rename.
// The publish step (existence re-check, rename, byte accounting) is
// serialized so concurrent writers of one key account it exactly once;
// the staging I/O stays outside the lock.
func (s *Store) put(key, final string, payload []byte) (published bool, err error) {
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(final), ".tmp-"+key[:8]+"-*")
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	var hdr [headerSize]byte
	copy(hdr[0:8], magic)
	binary.BigEndian.PutUint32(hdr[8:12], version)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[20:52], sum[:])
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(payload)
	}
	if err != nil {
		f.Close()
		return false, fmt.Errorf("store: writing %s: %w", key, err)
	}
	// fsync before rename: after a crash the published name must never
	// point at partially persisted bytes.
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("store: syncing %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("store: closing %s: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := os.Stat(final); err == nil {
		return false, nil // lost the publish race; identical bytes are down
	}
	if err := os.Rename(tmp, final); err != nil {
		return false, fmt.Errorf("store: publishing %s: %w", key, err)
	}
	s.bytes += int64(headerSize + len(payload))
	s.records++
	return true, nil
}

// Get returns the payload stored for key.  A missing record is a plain
// miss; a present-but-invalid record (truncated, corrupted, wrong magic
// or version) is quarantined and reported as a miss — the caller
// recomputes and rewrites.  A hit refreshes the record's modification
// time, so the GC's oldest-first order approximates LRU.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.misses.Inc()
		return nil, false
	}
	path := s.path(key)
	payload, err := readRecord(path)
	switch {
	case err == nil:
		now := time.Now()
		os.Chtimes(path, now, now)
		s.hits.Inc()
		return payload, true
	case errors.Is(err, fs.ErrNotExist):
		s.misses.Inc()
		return nil, false
	default:
		s.quarantine(path)
		s.misses.Inc()
		return nil, false
	}
}

// readRecord reads and validates one record file.  Every failure mode
// other than "file does not exist" means the record cannot be trusted.
func readRecord(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("store: short header: %w", err)
	}
	if string(hdr[0:8]) != magic {
		return nil, errors.New("store: bad magic")
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != version {
		return nil, fmt.Errorf("store: unsupported record version %d", v)
	}
	n := binary.BigEndian.Uint64(hdr[12:20])
	if n > maxPayload {
		return nil, fmt.Errorf("store: implausible payload length %d", n)
	}
	// A record is exactly header+payload.  Checking the file's size before
	// allocating means a corrupt length costs nothing, and a truncated or
	// padded file is refused before any payload is read.
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if size := info.Size(); uint64(size) != headerSize+n {
		return nil, fmt.Errorf("store: %d-byte file, header claims %d payload bytes", size, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("store: short payload: %w", err)
	}
	if sum := sha256.Sum256(payload); string(sum[:]) != string(hdr[20:52]) {
		return nil, errors.New("store: payload digest mismatch")
	}
	return payload, nil
}

// quarantine moves an invalid record out of the namespace (into
// dir/quarantine/) so it stops costing a validation failure on every
// read but stays available for post-mortem inspection.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.dir, quarantined)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
		s.quarantines.Inc()
		return
	}
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	var size int64
	if info, err := os.Stat(path); err == nil {
		size = info.Size()
	}
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
	s.quarantines.Inc()
	s.mu.Lock()
	s.bytes -= size
	if s.records > 0 {
		s.records--
	}
	s.mu.Unlock()
}

// gc evicts oldest-first until the namespace fits its byte budget.  The
// just-written record (keep) survives even when it alone exceeds the
// budget: evicting what was just computed would turn the store into a
// miss machine.
func (s *Store) gc(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	s.mu.Lock()
	over := s.bytes > s.maxBytes
	s.mu.Unlock()
	if !over {
		return
	}

	type rec struct {
		path  string
		size  int64
		mtime time.Time
	}
	var recs []rec
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == quarantined && path != s.dir {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") || path == keep {
			return nil
		}
		if info, err := d.Info(); err == nil {
			recs = append(recs, rec{path, info.Size(), info.ModTime()})
		}
		return nil
	})
	sort.Slice(recs, func(i, j int) bool { return recs[i].mtime.Before(recs[j].mtime) })

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if s.bytes <= s.maxBytes {
			break
		}
		if os.Remove(r.path) != nil {
			continue // already evicted by a sibling process
		}
		s.bytes -= r.size
		s.records--
		s.gcEvictions.Inc()
		s.bytesEvicted.Add(r.size)
	}
}

// Status is the namespace's /healthz view.
type Status struct {
	Dir      string `json:"dir"`
	Records  int64  `json:"records"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
}

// Status reports the namespace's current footprint.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{Dir: s.dir, Records: s.records, Bytes: s.bytes, MaxBytes: s.maxBytes}
}
