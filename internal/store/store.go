// Package store is a content-addressed, disk-spillable result store
// for evaluation-unit outcomes. Keys are opaque byte strings (the
// canonical unit signatures serialized by internal/exocore); the
// address of an entry is the SHA-256 of its key, so identical work
// always lands under the same address regardless of which process —
// or which replica — produced it. A daemon restarted with the same
// -store directory comes up warm: the first sweep hits disk instead of
// re-deriving every unit.
//
// On-disk layout (format "exocore-store/v2"):
//
//	DIR/VERSION              format marker, written once at create
//	DIR/log/NNNNNNNN.seg     append-only segments, in sequence order
//	DIR/quarantine/          corrupt records copied aside at open/read
//
// A segment is a run of self-verifying records: a magic header, the
// full key (so hash collisions and cross-namespace mixups are
// detected, not trusted), the value, and an FNV-64a checksum over
// everything before it. Every Open creates a fresh segment (O_EXCL)
// and is its only writer; Put appends one record with a single
// write(2). Open reads every segment once, in sequence order, and
// indexes each record under its address, so a later record of a key
// replaces an earlier one. A record that fails its check is copied to
// quarantine/ and never served; the scan resynchronizes on the next
// magic that starts a verifying record. A segment whose writer died
// mid-record ends in a torn tail, which is quarantined and cut off.
//
// The store is size-capped: an in-memory LRU index (seeded in log
// order, which is write order, and refreshed on access) drops the
// least recently used entries once the live key+value bytes exceed the
// cap. A dropped or replaced record stays in its segment as dead
// bytes. Compaction bounds the disk: once a sealed segment (one that
// is no longer appended to) holds less than half live bytes, its live
// records are copied into the active segment and it is unlinked.
//
// The compaction invariant: a handle holds an exclusive flock on every
// segment it writes until it closes, and compacts (or truncates) only
// segments it holds locked. Another handle's segments, live or sealed,
// become compactable only once that handle is gone, so no segment is
// ever rewritten or unlinked under a live writer. Readers keep every
// segment they index open, so a segment another handle compacts away
// stays readable through the open descriptor.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"exocore/internal/obs"
)

// Version is the on-disk format marker, written to DIR/VERSION when a
// store is created and required verbatim when one is reopened.
const Version = "exocore-store/v2"

// magic starts every record; the scan resynchronizes on it.
var magic = [8]byte{'e', 'x', 'o', 's', 't', 'o', 'r', '1'}

// DefaultCapBytes is the eviction cap when Options.CapBytes is zero:
// 1 GiB of entry payload (keys + values).
const DefaultCapBytes = 1 << 30

// The active segment is sealed and a fresh one started once the next
// record would take it past cap/segsPerCap bytes, clamped to
// [minSegBytes, maxSegBytes].
const (
	segsPerCap  = 16
	minSegBytes = 4 << 10
	maxSegBytes = 64 << 20
)

// compactBelow is the live share under which a sealed segment is
// compacted. It bounds the dead bytes of sealed segments by their live
// bytes.
const compactBelow = 0.5

// Options configures Open.
type Options struct {
	// CapBytes is the eviction threshold over the sum of entry sizes
	// (key + value bytes per entry). Zero means DefaultCapBytes;
	// negative means uncapped.
	CapBytes int64
	// Reg receives the store.* instruments (hits, misses, writes,
	// evictions, quarantined, and the bytes/entries gauges). Nil is
	// fine — instruments become inert.
	Reg *obs.Registry
}

// Store is a content-addressed persistent key/value store. All methods
// are safe for concurrent use. A nil *Store is inert: Get always
// misses and Put is a no-op, so callers can thread an optional store
// without nil checks.
type Store struct {
	dir    string
	cap    int64
	segMax int64

	mu      sync.Mutex
	entries map[[sha256.Size]byte]*list.Element // address -> lru element
	lru     *list.List                          // front = most recently used
	bytes   int64
	segs    []*segment // every segment indexed or written; nil once closed
	active  *segment   // the segment Put appends to; nil once closed
	nextSeq uint64
	sealed  bool // Put sealed a segment: a compaction pass is due

	hits        *obs.Counter
	misses      *obs.Counter
	writes      *obs.Counter
	evictions   *obs.Counter
	quarantined *obs.Counter
	gBytes      *obs.Gauge
	gEntries    *obs.Gauge
}

// segment is one log file as this handle knows it.
type segment struct {
	seq  uint64
	f    *os.File
	size int64 // bytes known: all of an own segment, the scanned extent of another's
	live int64 // framed bytes of the records the index points into
	// locked: this handle holds the segment's flock, so no one else
	// appends to, truncates or unlinks it.
	locked bool
	// damaged: holds quarantined records; compacted as soon as this
	// handle can lock it (a sealed one by the pass that ends Open), so
	// the damage is not found again.
	damaged bool
}

// entry is the in-memory index record for one stored key.
type entry struct {
	addr [sha256.Size]byte
	seg  *segment
	off  int64 // record offset in seg
	len  int64 // framed record length
	size int64 // key + value bytes, what the cap counts
}

// Open opens (or creates) the store rooted at dir. It validates the
// format marker, creates this handle's segment, scans the existing
// segments to rebuild the index, quarantines records that fail their
// self-check, evicts down to the cap if the log is over it, and
// compacts the segments that need it.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	vpath := filepath.Join(dir, "VERSION")
	if raw, err := os.ReadFile(vpath); err == nil {
		if string(raw) != Version+"\n" {
			return nil, fmt.Errorf("store: %s holds format %q, want %q; point -store at a fresh directory",
				dir, trimNL(raw), Version)
		}
	} else if errors.Is(err, fs.ErrNotExist) {
		if err := writeFileAtomic(vpath, []byte(Version+"\n")); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else {
		return nil, fmt.Errorf("store: %w", err)
	}
	logDir := filepath.Join(dir, "log")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := os.ReadDir(logDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var seqs []uint64
	for _, d := range names {
		if seq, ok := parseSegName(d.Name()); ok && d.Type().IsRegular() {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)

	capBytes := opts.CapBytes
	if capBytes == 0 {
		capBytes = DefaultCapBytes
	}
	s := &Store{
		dir:     dir,
		cap:     capBytes,
		segMax:  segMaxFor(capBytes),
		entries: make(map[[sha256.Size]byte]*list.Element),
		lru:     list.New(),
		nextSeq: 1,

		hits:        opts.Reg.Counter("store.hits"),
		misses:      opts.Reg.Counter("store.misses"),
		writes:      opts.Reg.Counter("store.writes"),
		evictions:   opts.Reg.Counter("store.evictions"),
		quarantined: opts.Reg.Counter("store.quarantined"),
		gBytes:      opts.Reg.Gauge("store.bytes"),
		gEntries:    opts.Reg.Gauge("store.entries"),
	}
	if len(seqs) > 0 {
		s.nextSeq = seqs[len(seqs)-1] + 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Creating the segment this handle writes is also the writability
	// probe: a store that can read but not write would silently degrade
	// to read-only, so fail at open with a clear error instead (the
	// -store flag surfaces this verbatim).
	active, err := s.createSegment()
	if err != nil {
		return nil, fmt.Errorf("store: %s is not writable: %w", dir, err)
	}
	s.active = active
	s.segs = []*segment{active}
	var buf []byte
	for _, seq := range seqs {
		if buf, err = s.load(seq, buf); err != nil {
			s.closeLocked()
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.evictLocked()
	s.compactLocked()
	s.publishLocked()
	return s, nil
}

// segMaxFor is the rotation size for a cap.
func segMaxFor(capBytes int64) int64 {
	if capBytes < 0 {
		return maxSegBytes
	}
	return min(max(capBytes/segsPerCap, minSegBytes), maxSegBytes)
}

func segName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

func parseSegName(name string) (uint64, bool) {
	digits, ok := strings.CutSuffix(name, ".seg")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, err == nil
}

func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, "log", segName(seq))
}

// createSegment creates and locks the next segment. Between the create
// and the lock, another handle's Open may take the empty file for a
// dead writer's and unlink it; the identity check after locking
// catches that and moves on to the next sequence number.
func (s *Store) createSegment() (*segment, error) {
	for tries := 0; ; tries++ {
		seq := s.nextSeq
		s.nextSeq++
		path := s.segPath(seq)
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err == nil {
			if tryLock(f) && linked(f, path) {
				return &segment{seq: seq, f: f, locked: true}, nil
			}
			f.Close()
			err = fmt.Errorf("%s was taken by another handle", path)
		} else if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		if tries == 100 {
			return nil, err
		}
	}
}

// linked reports whether path still names the file f is open on.
func linked(f *os.File, path string) bool {
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	pi, err := os.Stat(path)
	return err == nil && os.SameFile(fi, pi)
}

// load indexes segment seq, reading it into buf (returned for reuse).
// A segment this handle cannot lock belongs to a live writer, whose
// last record may still be arriving: a torn tail there is left alone.
// A sealed segment's torn tail is a dead writer's: it is quarantined
// and cut off. Other damage is quarantined and marks the segment for
// compaction.
func (s *Store) load(seq uint64, buf []byte) ([]byte, error) {
	path := s.segPath(seq)
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return buf, nil // compacted away by another handle since the listing
	}
	if err != nil {
		return buf, err
	}
	seg := &segment{seq: seq, f: f, locked: tryLock(f)}
	if seg.locked && !linked(f, path) {
		f.Close()
		return buf, nil
	}
	data, err := readSegment(f, buf)
	if err != nil {
		f.Close()
		return buf, fmt.Errorf("reading %s: %w", path, err)
	}
	seg.size = int64(len(data))
	tail := -1
	scanRecords(data, func(off int, key, val []byte) {
		s.indexLocked(sha256.Sum256(key), seg, int64(off), recLen(key, val), int64(len(key)+len(val)))
	}, func(off, end int, torn bool) {
		if torn && !seg.locked {
			seg.size = int64(off)
			return
		}
		s.quarantine(seq, int64(off), data[off:end])
		if torn {
			tail = off
		} else {
			seg.damaged = true
		}
	})
	if tail >= 0 && !seg.damaged {
		if os.Truncate(path, int64(tail)) == nil {
			seg.size = int64(tail)
		} else {
			seg.damaged = true
		}
	}
	switch {
	case seg.size == 0:
		if seg.locked {
			os.Remove(path)
		}
		f.Close()
		return data, nil
	case seg.locked && !seg.damaged:
		unlock(f)
		seg.locked = false
	}
	s.segs = append(s.segs, seg)
	return data, nil
}

// readSegment reads all of f with one positioned read into buf.
func readSegment(f *os.File, buf []byte) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], int(fi.Size()))[:fi.Size()]
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// overhead is the fixed per-record framing: magic + two uint32 length
// prefixes + the trailing FNV-64a checksum. Entry "size" for the cap
// is payload only (key + value), so the cap semantics don't depend on
// framing details.
const overhead = int64(len(magic)) + 4 + 4 + 8

func recLen(key, val []byte) int64 { return overhead + int64(len(key)+len(val)) }

// Get returns the value stored for key, or ok=false on a miss. A
// corrupt record counts as a miss and is quarantined.
func (s *Store) Get(key []byte) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	addr := sha256.Sum256(key)
	for {
		s.mu.Lock()
		el, ok := s.entries[addr]
		if !ok {
			s.mu.Unlock()
			s.misses.Add(1)
			return nil, false
		}
		s.lru.MoveToFront(el)
		e := *el.Value.(*entry)
		s.mu.Unlock()

		rec := make([]byte, e.len)
		_, err := e.seg.f.ReadAt(rec, e.off)
		if err == nil {
			if gotKey, val, err := decodeObject(rec); err == nil && bytes.Equal(gotKey, key) {
				s.hits.Add(1)
				return val, true
			}
		}
		// Torn, corrupt, (vanishingly unlikely) a SHA-256 collision — or
		// moved by a compaction since the lookup, which retries.
		s.mu.Lock()
		el, ok = s.entries[addr]
		if ok && el.Value.(*entry).seg == e.seg && el.Value.(*entry).off == e.off {
			s.dropLocked(el)
			s.publishLocked()
			s.mu.Unlock()
			s.quarantine(e.seg.seq, e.off, rec)
			s.misses.Add(1)
			return nil, false
		}
		s.mu.Unlock()
	}
}

// Put stores val under key, replacing any previous value, and evicts
// least-recently-used entries if the cap is now exceeded. Errors are
// swallowed: the store is a cache, and a failed write only costs a
// future re-computation.
func (s *Store) Put(key, val []byte) {
	if s == nil {
		return
	}
	rec := encodeObject(key, val)
	addr := sha256.Sum256(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, off, err := s.appendLocked(rec)
	if err != nil {
		return
	}
	s.indexLocked(addr, seg, off, int64(len(rec)), int64(len(key)+len(val)))
	s.evictLocked()
	if s.sealed {
		s.sealed = false
		s.compactLocked()
	}
	s.publishLocked()
	s.writes.Add(1)
}

var errClosed = errors.New("store: closed")

// appendLocked writes one framed record to the active segment with a
// single write(2), first sealing the segment and starting a fresh one
// if the record would take it past the rotation size. It returns where
// the record landed. Caller holds s.mu.
func (s *Store) appendLocked(rec []byte) (*segment, int64, error) {
	if s.active == nil {
		return nil, 0, errClosed
	}
	if s.active.size > 0 && s.active.size+int64(len(rec)) > s.segMax {
		seg, err := s.createSegment()
		if err != nil {
			return nil, 0, err
		}
		s.active = seg
		s.segs = append(s.segs, seg)
		s.sealed = true
	}
	a := s.active
	off := a.size
	n, err := a.f.Write(rec)
	a.size += int64(n) // a short write leaves dead bytes the next scan quarantines
	if err != nil {
		return nil, 0, err
	}
	return a, off, nil
}

// indexLocked points addr at a record, replacing (and counting dead)
// any earlier record of it, and makes it the most recently used entry.
// Caller holds s.mu.
func (s *Store) indexLocked(addr [sha256.Size]byte, seg *segment, off, n, size int64) {
	if el, ok := s.entries[addr]; ok {
		e := el.Value.(*entry)
		e.seg.live -= e.len
		s.bytes += size - e.size
		e.seg, e.off, e.len, e.size = seg, off, n, size
		s.lru.MoveToFront(el)
	} else {
		s.entries[addr] = s.lru.PushFront(&entry{addr: addr, seg: seg, off: off, len: n, size: size})
		s.bytes += size
	}
	seg.live += n
}

// dropLocked removes one entry from the index; its record becomes dead
// bytes. Caller holds s.mu.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.entries, e.addr)
	s.bytes -= e.size
	e.seg.live -= e.len
}

// evictLocked removes least-recently-used entries until the byte total
// is within the cap. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.cap < 0 {
		return
	}
	for s.bytes > s.cap && s.lru.Len() > 0 {
		s.dropLocked(s.lru.Back())
		s.evictions.Add(1)
	}
}

// compactLocked compacts every sealed segment that is damaged or under
// compactBelow live and that this handle can lock; a segment it cannot
// lock has a live writer and is left alone. Caller holds s.mu.
func (s *Store) compactLocked() {
	for _, seg := range slices.Clone(s.segs) {
		if seg == s.active {
			continue
		}
		if !seg.damaged && float64(seg.live) >= compactBelow*float64(seg.size) {
			continue
		}
		if !seg.locked {
			if !tryLock(seg.f) {
				continue
			}
			seg.locked = true
		}
		if err := s.compactOne(seg); err != nil {
			break // out of space or the like: keep the segment, retry at the next seal
		}
	}
	s.evictLocked() // adopted records may have taken the index over the cap
}

// compactOne copies a locked sealed segment's live records into the
// active segment and unlinks it. It rereads the segment: records past
// the extent this handle scanned were written after its Open by a
// writer now gone, and are kept (as least recently used) unless the
// index already holds their key; their damage is quarantined here.
// Caller holds s.mu.
func (s *Store) compactOne(seg *segment) error {
	data, err := readSegment(seg.f, nil)
	if err != nil {
		return err
	}
	scanRecords(data, func(off int, key, val []byte) {
		if err != nil {
			return
		}
		addr := sha256.Sum256(key)
		el, known := s.entries[addr]
		if int64(off) < seg.size {
			if !known || el.Value.(*entry).seg != seg || el.Value.(*entry).off != int64(off) {
				return // dead: replaced, evicted or quarantined
			}
		} else if known {
			return
		}
		rec := data[off : int64(off)+recLen(key, val)]
		var to *segment
		var at int64
		if to, at, err = s.appendLocked(rec); err != nil {
			return
		}
		to.live += int64(len(rec))
		if known {
			e := el.Value.(*entry)
			seg.live -= e.len
			e.seg, e.off = to, at
			return
		}
		s.entries[addr] = s.lru.PushBack(&entry{addr: addr, seg: to, off: at, len: int64(len(rec)), size: int64(len(key) + len(val))})
		s.bytes += int64(len(key) + len(val))
	}, func(off, end int, _ bool) {
		if int64(off) >= seg.size {
			s.quarantine(seg.seq, int64(off), data[off:end])
		}
	})
	if err != nil {
		return err
	}
	// Another handle may have compacted the segment already and a new
	// one reused its name; only the lock holder of the file a path
	// names may unlink it.
	if path := s.segPath(seg.seq); linked(seg.f, path) {
		os.Remove(path)
	}
	seg.f.Close()
	s.segs = slices.DeleteFunc(s.segs, func(x *segment) bool { return x == seg })
	return nil
}

func (s *Store) publishLocked() {
	s.gBytes.Set(s.bytes)
	s.gEntries.Set(int64(s.lru.Len()))
}

// Close closes every segment file, which releases this handle's
// segment locks, and removes its active segment if nothing was
// written to it. After Close, Get misses and Put is a no-op. Close is
// idempotent and nil-safe.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	if s.active != nil && s.active.size == 0 {
		os.Remove(s.segPath(s.active.seq))
	}
	var errs []error
	for _, seg := range s.segs {
		errs = append(errs, seg.f.Close())
	}
	s.segs, s.active = nil, nil
	clear(s.entries)
	s.lru.Init()
	s.bytes = 0
	return errors.Join(errs...)
}

// Dir returns the store's root directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Occupancy reports the store's current size for /healthz and
// /v1/capabilities.
type Occupancy struct {
	Dir      string `json:"dir"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	CapBytes int64  `json:"cap_bytes"`
}

// Occupancy returns the current entry/byte occupancy (zero value for a
// nil store).
func (s *Store) Occupancy() Occupancy {
	if s == nil {
		return Occupancy{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Occupancy{Dir: s.dir, Entries: s.lru.Len(), Bytes: s.bytes, CapBytes: s.cap}
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// quarantine copies a damaged region of segment seq, found at off, to
// DIR/quarantine/ so it can be inspected; it is never served either
// way. The file name is the segment and offset, so finding the same
// damage again rewrites the same file.
func (s *Store) quarantine(seq uint64, off int64, raw []byte) {
	qdir := filepath.Join(s.dir, "quarantine")
	if os.MkdirAll(qdir, 0o755) == nil {
		// Best effort: the region is out of service whether or not the
		// copy lands.
		_ = os.WriteFile(filepath.Join(qdir, fmt.Sprintf("%08d.%d", seq, off)), raw, 0o644)
	}
	s.quarantined.Add(1)
}

// encodeObject frames one record:
//
//	magic[8] | keyLen u32 | key | valLen u32 | val | fnv64a u64
//
// with the checksum taken over everything before it.
func encodeObject(key, val []byte) []byte {
	buf := make([]byte, 0, int(overhead)+len(key)+len(val))
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum(buf)
}

var errCorrupt = errors.New("store: corrupt object")

// decodeObject is the inverse of encodeObject; it returns errCorrupt
// on any framing or checksum mismatch.
func decodeObject(raw []byte) (key, val []byte, err error) {
	if int64(len(raw)) < overhead || string(raw[:len(magic)]) != string(magic[:]) {
		return nil, nil, errCorrupt
	}
	body, sum := raw[:len(raw)-8], binary.BigEndian.Uint64(raw[len(raw)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, nil, errCorrupt
	}
	p := body[len(magic):]
	if len(p) < 4 {
		return nil, nil, errCorrupt
	}
	klen := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint32(len(p)) < klen+4 {
		return nil, nil, errCorrupt
	}
	key, p = p[:klen], p[klen:]
	vlen := binary.BigEndian.Uint32(p)
	p = p[4:]
	if uint32(len(p)) != vlen {
		return nil, nil, errCorrupt
	}
	return key, p, nil
}

// frameLen reads the framed length of the record starting at p. short
// reports that p ends before the record does while everything present
// is still a valid prefix of one; ok=false without short means p does
// not start a record at all.
func frameLen(p []byte) (n int64, short, ok bool) {
	if m := min(len(p), len(magic)); string(p[:m]) != string(magic[:m]) {
		return 0, false, false
	}
	hdr := int64(len(magic)) + 4
	if int64(len(p)) < hdr {
		return 0, true, false
	}
	klen := int64(binary.BigEndian.Uint32(p[len(magic):]))
	if int64(len(p)) < hdr+klen+4 {
		return 0, true, false
	}
	vlen := int64(binary.BigEndian.Uint32(p[hdr+klen:]))
	n = overhead + klen + vlen
	if int64(len(p)) < n {
		return 0, true, false
	}
	return n, false, true
}

// parseRecord decodes the verifying record at the start of p, if any.
func parseRecord(p []byte) (key, val []byte, short, ok bool) {
	n, short, ok := frameLen(p)
	if !ok {
		return nil, nil, short, false
	}
	key, val, err := decodeObject(p[:n])
	return key, val, false, err == nil
}

// scanRecords walks a segment's bytes in order, calling rec for every
// verifying record and bad for every damaged region. A region runs
// from a record that fails to the next magic that starts a verifying
// record, or to the end; torn reports a region that reaches the end
// as a still-valid prefix of one record, as a writer stopped mid-write
// leaves it.
func scanRecords(data []byte, rec func(off int, key, val []byte), bad func(off, end int, torn bool)) {
	for off := 0; off < len(data); {
		key, val, short, ok := parseRecord(data[off:])
		if ok {
			rec(off, key, val)
			off += int(recLen(key, val))
			continue
		}
		end := resync(data, off+1)
		bad(off, end, short && end == len(data))
		off = end
	}
}

// resync returns the first offset at or after from where a verifying
// record starts, or len(data).
func resync(data []byte, from int) int {
	for from < len(data) {
		i := bytes.Index(data[from:], magic[:])
		if i < 0 {
			break
		}
		from += i
		if _, _, _, ok := parseRecord(data[from:]); ok {
			return from
		}
		from++
	}
	return len(data)
}

// writeFileAtomic writes data via a temp file + rename in the target's
// directory, so readers never observe a partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

func trimNL(b []byte) string {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return string(b)
}
