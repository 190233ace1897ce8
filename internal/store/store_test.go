package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"predication/internal/obs"
)

func keyOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoundTrip: Put then Get returns the exact payload, and the counters
// record one write, one hit, and no failures.
func TestRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	s := open(t, t.TempDir(), Options{Name: "store_test", Registry: reg})
	payload := []byte("hello predication")
	key := keyOf("k1")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"store_test_writes": 1, "store_test_disk_hits": 1,
		"store_test_write_errors": 0, "store_test_quarantines": 0,
	} {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if st := s.Status(); st.Records != 1 || st.Bytes != int64(headerSize+len(payload)) {
		t.Errorf("Status = %+v", st)
	}
}

// TestWriteOnce: a second Put of the same key leaves the original record
// untouched (write-once semantics make concurrent writers benign).
func TestWriteOnce(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	key := keyOf("once")
	if err := s.Put(key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("second — must not land")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "first" {
		t.Fatalf("Get after duplicate Put = %q, %v; want the original bytes", got, ok)
	}
	if st := s.Status(); st.Records != 1 {
		t.Errorf("Records = %d after duplicate Put, want 1", st.Records)
	}
}

// TestInvalidKeys: anything that is not a SHA-256 hex digest is refused —
// the key namespace is also the filename namespace.
func TestInvalidKeys(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), "../../../../etc/passwd",
		strings.Repeat("A", 64), keyOf("x") + "0",
	} {
		if err := s.Put(key, []byte("p")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Errorf("Get(%q) hit on an invalid key", key)
		}
	}
}

// TestMissingIsMiss: a never-written key is a plain miss, no quarantine.
func TestMissingIsMiss(t *testing.T) {
	reg := obs.NewRegistry()
	s := open(t, t.TempDir(), Options{Name: "m", Registry: reg})
	if _, ok := s.Get(keyOf("never")); ok {
		t.Fatal("hit on a missing key")
	}
	snap := reg.Snapshot()
	if snap.Counters["m_disk_misses"] != 1 || snap.Counters["m_quarantines"] != 0 {
		t.Errorf("counters = %v", snap.Counters)
	}
}

// TestCorruptRecordsQuarantined: table-driven hostile records — every
// way a file can fail validation reads as a miss, moves the file into
// quarantine/, and leaves the namespace clean for a rewrite.
// goodRecord renders a well-formed record file holding payload.
func goodRecord(payload []byte) []byte {
	var hdr [headerSize]byte
	copy(hdr[0:8], magic)
	binary.BigEndian.PutUint32(hdr[8:12], version)
	binary.BigEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[20:52], sum[:])
	return append(hdr[:], payload...)
}

// corruptions turns a good record into each way a record file can be
// wrong.
var corruptions = []struct {
	name    string
	corrupt func([]byte) []byte
}{
	{"empty file", func(r []byte) []byte { return nil }},
	{"truncated header", func(r []byte) []byte { return r[:headerSize/2] }},
	{"truncated payload", func(r []byte) []byte { return r[:len(r)-4] }},
	{"bad magic", func(r []byte) []byte {
		r[0] ^= 0xff
		return r
	}},
	{"future version", func(r []byte) []byte {
		binary.BigEndian.PutUint32(r[8:12], version+7)
		return r
	}},
	{"flipped payload bit", func(r []byte) []byte {
		r[headerSize] ^= 0x01
		return r
	}},
	{"trailing garbage", func(r []byte) []byte { return append(r, 0xEE) }},
	{"implausible length", func(r []byte) []byte {
		binary.BigEndian.PutUint64(r[12:20], maxPayload+1)
		return r
	}},
	{"length beyond the file", func(r []byte) []byte {
		binary.BigEndian.PutUint64(r[12:20], maxPayload)
		return r
	}},
}

func TestCorruptRecordsQuarantined(t *testing.T) {
	payload := []byte("payload bytes")
	cases := corruptions
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			s := open(t, dir, Options{Name: "q", Registry: reg})
			key := keyOf(fmt.Sprintf("corrupt-%d", i))
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			rec := tc.corrupt(goodRecord(payload))
			if err := os.WriteFile(s.path(key), rec, 0o644); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, ok := s.Get(key)
			runtime.ReadMemStats(&after)
			if ok {
				t.Fatal("corrupt record served as a hit")
			}
			// Rejecting a record never allocates the length its header
			// claims.
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Errorf("rejecting the record allocated %d bytes", n)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Error("corrupt record still present in the namespace")
			}
			matches, _ := filepath.Glob(filepath.Join(dir, quarantined, key+".*"))
			if len(matches) != 1 {
				t.Errorf("quarantine holds %d copies, want 1", len(matches))
			}
			snap := reg.Snapshot()
			if snap.Counters["q_quarantines"] != 1 {
				t.Errorf("quarantines = %d, want 1", snap.Counters["q_quarantines"])
			}
			// The slot is writable again and the rewrite round-trips.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Error("rewrite after quarantine does not round-trip")
			}
		})
	}
}

// FuzzReadRecord drives arbitrary bytes through readRecord, the check
// behind every disk hit.  It must never panic, it must accept exactly the
// well-formed records (magic, version, a length equal to the bytes after
// the header, and their digest), and for those it returns the bytes after
// the header.  Seeds: a good record and each corruption of it.
func FuzzReadRecord(f *testing.F) {
	payload := []byte("payload bytes")
	f.Add(goodRecord(payload))
	for _, c := range corruptions {
		f.Add(c.corrupt(goodRecord(payload)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "record")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readRecord(path)
		wellFormed := len(data) >= headerSize &&
			string(data[0:8]) == magic &&
			binary.BigEndian.Uint32(data[8:12]) == version &&
			binary.BigEndian.Uint64(data[12:20]) == uint64(len(data)-headerSize)
		if wellFormed {
			sum := sha256.Sum256(data[headerSize:])
			wellFormed = bytes.Equal(sum[:], data[20:52])
		}
		switch {
		case wellFormed && err != nil:
			t.Fatalf("well-formed record refused: %v", err)
		case !wellFormed && err == nil:
			t.Fatal("malformed record accepted")
		case wellFormed && !bytes.Equal(got, data[headerSize:]):
			t.Fatal("accepted record's payload differs from the bytes after its header")
		}
	})
}

// TestCrashMidWriteLeavesNoReadableRecord: a writer that dies before the
// rename leaves only a temp file.  The key reads as a miss, and reopening
// the namespace sweeps the debris without counting it.
func TestCrashMidWriteLeavesNoReadableRecord(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := keyOf("crashed")
	// Simulate the crash: the temp file exists with a partial record —
	// everything Put does before the rename — but was never published.
	fan := filepath.Join(dir, key[:2])
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(fan, ".tmp-"+key[:8]+"-123456")
	if err := os.WriteFile(tmp, []byte(magic+"partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("unpublished temp file served as a record")
	}
	s2 := open(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("reopen did not sweep the crashed writer's temp file")
	}
	if st := s2.Status(); st.Records != 0 || st.Bytes != 0 {
		t.Errorf("crashed write counted in Status: %+v", st)
	}
}

// TestGCEvictsOldestFirst: past the byte budget, the oldest records go
// first, the just-written record survives, and the eviction counters add
// up.  The records are laid down by an unbounded handle with staggered
// modification times, then a budgeted handle over the same directory
// triggers GC with one more write — the multi-process shape.
func TestGCEvictsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	recSize := int64(headerSize + len(payload))
	s1 := open(t, dir, Options{})
	keys := make([]string, 5)
	now := time.Now()
	for i := range keys {
		keys[i] = keyOf(fmt.Sprintf("gc-%d", i))
		if err := s1.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes well past filesystem timestamp granularity:
		// keys[0] is the oldest.
		stale := now.Add(-time.Duration(len(keys)-i) * time.Hour)
		if err := os.Chtimes(s1.path(keys[i]), stale, stale); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	s2 := open(t, dir, Options{MaxBytes: 3 * recSize, Name: "gc", Registry: reg})
	fresh := keyOf("gc-fresh")
	if err := s2.Put(fresh, payload); err != nil {
		t.Fatal(err)
	}
	if st := s2.Status(); st.Bytes > 3*recSize {
		t.Errorf("GC left %d bytes, budget %d", st.Bytes, 3*recSize)
	}
	for i := 0; i < 3; i++ { // the three oldest went
		if _, err := os.Stat(s2.path(keys[i])); !os.IsNotExist(err) {
			t.Errorf("keys[%d] survived GC", i)
		}
	}
	for _, k := range []string{keys[3], keys[4], fresh} { // the newest stayed
		if _, ok := s2.Get(k); !ok {
			t.Errorf("record %s was evicted out of age order", k[:8])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["gc_gc_evictions"] != 3 {
		t.Errorf("gc_evictions = %d, want 3", snap.Counters["gc_gc_evictions"])
	}
	if snap.Counters["gc_bytes_evicted"] != 3*recSize {
		t.Errorf("bytes_evicted = %d, want %d", snap.Counters["gc_bytes_evicted"], 3*recSize)
	}
}

// TestGetRefreshesLRU: a Get refreshes the record's age, so the
// recently-read survive a GC pass that evicts colder siblings.
func TestGetRefreshesLRU(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 100)
	recSize := int64(headerSize + len(payload))
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	old, hot, fresh := keyOf("old"), keyOf("hot"), keyOf("fresh")
	for i, key := range []string{old, hot} {
		if err := s1.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		stale := time.Now().Add(-time.Duration(10-i) * time.Hour)
		if err := os.Chtimes(s1.path(key), stale, stale); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s1.Get(hot); !ok { // refreshes hot's mtime to now
		t.Fatal("hot record missing")
	}
	s2 := open(t, dir, Options{MaxBytes: 2 * recSize})
	if err := s2.Put(fresh, payload); err != nil { // pushes over budget
		t.Fatal(err)
	}
	if _, ok := s2.Get(old); ok {
		t.Error("coldest record survived GC")
	}
	if _, ok := s2.Get(hot); !ok {
		t.Error("recently-read record was evicted before the cold one")
	}
}

// TestReopenWarmsInstantly: a new Store over an existing directory serves
// the old records and reports the right footprint — the warm-restart
// property the serving daemon builds on.
func TestReopenWarmsInstantly(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{})
	payloads := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := keyOf(fmt.Sprintf("warm-%d", i))
		payloads[k] = []byte(fmt.Sprintf("payload %d", i))
		if err := s1.Put(k, payloads[k]); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, dir, Options{})
	if st := s2.Status(); st.Records != 8 {
		t.Errorf("reopened Records = %d, want 8", st.Records)
	}
	for k, want := range payloads {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Errorf("reopened Get(%s) = %q, %v", k[:8], got, ok)
		}
	}
}

// TestConcurrentWriters: many goroutines writing overlapping key sets
// under -race; every key must afterwards read back intact.
func TestConcurrentWriters(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	const keys, writers = 16, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := keyOf(fmt.Sprintf("conc-%d", i))
				payload := []byte(fmt.Sprintf("content of %d", i)) // same bytes from every writer
				if err := s.Put(key, payload); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
				if got, ok := s.Get(key); ok && string(got) != string(payload) {
					t.Errorf("writer %d: key %d read back %q", w, i, got)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		key := keyOf(fmt.Sprintf("conc-%d", i))
		if got, ok := s.Get(key); !ok || string(got) != fmt.Sprintf("content of %d", i) {
			t.Errorf("key %d after concurrent writes: %q, %v", i, got, ok)
		}
	}
	if st := s.Status(); st.Records != keys {
		t.Errorf("Records = %d, want %d", st.Records, keys)
	}
}
