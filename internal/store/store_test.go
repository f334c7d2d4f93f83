package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"exocore/internal/obs"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := []byte("u1|bench/core/15000|sig")
	val := []byte{1, 2, 3, 4, 5}
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(key, val)
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %v, %v; want %v, true", got, ok, val)
	}

	// Overwrite replaces.
	val2 := []byte("replacement")
	s.Put(key, val2)
	got, ok = s.Get(key)
	if !ok || !bytes.Equal(got, val2) {
		t.Fatalf("after overwrite Get = %q, %v; want %q", got, ok, val2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestReopenWarm(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}

	reg := obs.NewRegistry()
	s2 := mustOpen(t, dir, Options{Reg: reg})
	if s2.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", s2.Len())
	}
	for i := 0; i < 10; i++ {
		got, ok := s2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key-%d: got %q, %v", i, got, ok)
		}
	}
	if v := reg.Counter("store.hits").Value(); v != 10 {
		t.Fatalf("store.hits = %d, want 10", v)
	}
}

func TestVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	mustOpen(t, dir, Options{})
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("exocore-store/v9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a mismatched format marker")
	}
}

// segFiles returns the paths of the non-empty segments under dir/log,
// in sequence order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := os.ReadDir(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range names {
		if info, err := d.Info(); err == nil && info.Size() > 0 {
			out = append(out, filepath.Join(dir, "log", d.Name()))
		}
	}
	return out
}

// recordOffsets returns the offset of every record in a segment's bytes.
func recordOffsets(data []byte) []int {
	var offs []int
	scanRecords(data, func(off int, _, _ []byte) { offs = append(offs, off) }, func(int, int, bool) {})
	return offs
}

// flipByte inverts the byte at off in path, in place, so a handle still
// appending to the file keeps its own descriptor.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// corruptOne flips a byte in the middle of the first record of the
// first non-empty segment and returns the segment's path.
func corruptOne(t *testing.T, dir string) string {
	t.Helper()
	segs := segFiles(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments to corrupt")
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	n, _, ok := frameLen(raw)
	if !ok {
		t.Fatalf("%s does not start with a record", segs[0])
	}
	flipByte(t, segs[0], n/2)
	return segs[0]
}

func TestCorruptEntryQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Put([]byte("good"), []byte("g"))
	s.Put([]byte("bad"), []byte("b"))
	corruptOne(t, dir)

	reg := obs.NewRegistry()
	s2 := mustOpen(t, dir, Options{Reg: reg})
	if s2.Len() != 1 {
		t.Fatalf("Len after corrupt open = %d, want 1", s2.Len())
	}
	if v := reg.Counter("store.quarantined").Value(); v != 1 {
		t.Fatalf("store.quarantined = %d, want 1", v)
	}
	qfiles, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(qfiles) != 1 {
		t.Fatalf("quarantine holds %d files, want 1", len(qfiles))
	}
	// Exactly one of the two keys survived; both reads must be sane.
	okCount := 0
	for _, k := range []string{"good", "bad"} {
		if _, ok := s2.Get([]byte(k)); ok {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("%d of 2 keys readable after corruption, want 1", okCount)
	}
}

func TestCorruptEntryQuarantinedAtGet(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, Options{Reg: reg})
	s.Put([]byte("k"), []byte("v"))
	corruptOne(t, dir)
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("Get returned a corrupt value")
	}
	if v := reg.Counter("store.quarantined").Value(); v != 1 {
		t.Fatalf("store.quarantined = %d, want 1", v)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", s.Len())
	}
	// The entry is out of the index either way.
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("quarantined entry resurrected")
	}
}

func TestEvictionCap(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Each entry is 5+95 = 100 payload bytes; cap at 350 keeps 3.
	s := mustOpen(t, dir, Options{CapBytes: 350, Reg: reg})
	val := bytes.Repeat([]byte{7}, 95)
	for i := 0; i < 8; i++ {
		s.Put([]byte(fmt.Sprintf("ek-%02d", i)), val)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d under cap 350, want 3", s.Len())
	}
	if v := reg.Counter("store.evictions").Value(); v != 5 {
		t.Fatalf("store.evictions = %d, want 5", v)
	}
	occ := s.Occupancy()
	if occ.Bytes != 300 || occ.Entries != 3 || occ.CapBytes != 350 {
		t.Fatalf("Occupancy = %+v", occ)
	}
	// Most recently written survive.
	for i := 5; i < 8; i++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("ek-%02d", i))); !ok {
			t.Fatalf("ek-%02d evicted, want kept", i)
		}
	}
	for i := 0; i < 5; i++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("ek-%02d", i))); ok {
			t.Fatalf("ek-%02d kept, want evicted", i)
		}
	}
}

func TestLRUOrderOnAccess(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CapBytes: 300})
	val := bytes.Repeat([]byte{7}, 95)
	s.Put([]byte("aa-00"), val)
	s.Put([]byte("aa-01"), val)
	s.Put([]byte("aa-02"), val)
	// Touch the oldest so it becomes most recent, then overflow.
	if _, ok := s.Get([]byte("aa-00")); !ok {
		t.Fatal("aa-00 missing before overflow")
	}
	s.Put([]byte("aa-03"), val)
	if _, ok := s.Get([]byte("aa-01")); ok {
		t.Fatal("aa-01 should have been evicted (LRU)")
	}
	if _, ok := s.Get([]byte("aa-00")); !ok {
		t.Fatal("aa-00 was evicted despite recent access")
	}
}

func TestNilStoreInert(t *testing.T) {
	var s *Store
	s.Put([]byte("k"), []byte("v"))
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("nil store hit")
	}
	if s.Len() != 0 || s.Dir() != "" {
		t.Fatal("nil store not inert")
	}
	if occ := s.Occupancy(); occ != (Occupancy{}) {
		t.Fatalf("nil Occupancy = %+v", occ)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close = %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{CapBytes: 1 << 20})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []byte(fmt.Sprintf("k-%d-%d", g, i%10))
				s.Put(key, key)
				if v, ok := s.Get(key); ok && !bytes.Equal(v, key) {
					t.Errorf("goroutine %d: value mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentCompaction runs Puts and Gets from several goroutines
// under a cap small enough that segments seal and compact while reads
// are in flight: every hit must return the value written for its key,
// and a record moved under a reader must not be taken for corrupt.
func TestConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := mustOpen(t, dir, Options{CapBytes: 8 << 10, Reg: reg})
	defer s.Close()
	key := func(g, i int) []byte { return []byte(fmt.Sprintf("cc-%d-%d", g%8, i%40)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Put(key(g, i), bytes.Repeat(key(g, i), 10))
				other := key(g+1, i)
				if v, ok := s.Get(other); ok && !bytes.Equal(v, bytes.Repeat(other, 10)) {
					t.Errorf("goroutine %d: value mismatch for %s", g, other)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v := reg.Counter("store.quarantined").Value(); v != 0 {
		t.Errorf("store.quarantined = %d under concurrent compaction, want 0", v)
	}
	if n := len(segFiles(t, dir)); n > 8 {
		t.Errorf("%d segments left after compaction", n)
	}
}

// logBytes sums the sizes of the files under dir/log.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	names, err := os.ReadDir(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, d := range names {
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// writeLog makes dir a store whose log is one segment holding data.
func writeLog(t *testing.T, dir string, data []byte) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte(Version+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "log", segName(1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestV1DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("exocore-store/v1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "fresh directory") {
		t.Fatalf("Open(v1 dir) = %v, want a refusal naming a fresh directory", err)
	}
}

// TestTornTailEveryOffset cuts a sealed segment at every byte inside its
// last record, as a writer killed mid-write leaves it: every earlier
// record is still served, the tail is quarantined once and cut off, and
// Open reports no error.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	for i := 0; i < 3; i++ {
		s.Put([]byte(fmt.Sprintf("torn-%d", i)), bytes.Repeat([]byte{byte(i)}, 20+i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(segFiles(t, src)[0])
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(full)
	last := offs[len(offs)-1]
	for cut := last + 1; cut < len(full); cut++ {
		dir := t.TempDir()
		path := writeLog(t, dir, full[:cut])
		reg := obs.NewRegistry()
		s, err := Open(dir, Options{Reg: reg})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if v := reg.Counter("store.quarantined").Value(); v != 1 {
			t.Errorf("cut %d: store.quarantined = %d, want 1", cut, v)
		}
		for i := 0; i < 2; i++ {
			if _, ok := s.Get([]byte(fmt.Sprintf("torn-%d", i))); !ok {
				t.Errorf("cut %d: torn-%d lost", cut, i)
			}
		}
		if _, ok := s.Get([]byte("torn-2")); ok {
			t.Errorf("cut %d: torn record served", cut)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(last) {
			t.Errorf("cut %d: segment not cut back to %d bytes (%v, %v)", cut, last, info, err)
		}
		s.Close()
		// The tail is gone: a second open finds nothing to quarantine.
		reg = obs.NewRegistry()
		s = mustOpen(t, dir, Options{Reg: reg})
		if v := reg.Counter("store.quarantined").Value(); v != 0 || s.Len() != 2 {
			t.Errorf("cut %d: reopen quarantined %d, Len %d; want 0, 2", cut, v, s.Len())
		}
		s.Close()
	}
}

// TestFlipMidSegmentResyncs flips each byte of a middle record in turn:
// only that record is quarantined, and the scan resynchronizes on the
// next record so everything after it stays readable.
func TestFlipMidSegmentResyncs(t *testing.T) {
	src := t.TempDir()
	s := mustOpen(t, src, Options{})
	const n, bad = 5, 2
	for i := 0; i < n; i++ {
		s.Put([]byte(fmt.Sprintf("mid-%d", i)), bytes.Repeat([]byte{byte(i)}, 30))
	}
	s.Close()
	full, err := os.ReadFile(segFiles(t, src)[0])
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(full)
	for at := offs[bad]; at < offs[bad+1]; at++ {
		dir := t.TempDir()
		writeLog(t, dir, full)
		flipByte(t, filepath.Join(dir, "log", segName(1)), int64(at))
		reg := obs.NewRegistry()
		s := mustOpen(t, dir, Options{Reg: reg})
		if v := reg.Counter("store.quarantined").Value(); v != 1 {
			t.Errorf("flip at %d: store.quarantined = %d, want 1", at, v)
		}
		for i := 0; i < n; i++ {
			if _, ok := s.Get([]byte(fmt.Sprintf("mid-%d", i))); ok != (i != bad) {
				t.Errorf("flip at %d: mid-%d readable = %v", at, i, ok)
			}
		}
		s.Close()
		// The damaged sealed segment was compacted: the damage is reported
		// once, and the survivors outlive it.
		reg = obs.NewRegistry()
		s = mustOpen(t, dir, Options{Reg: reg})
		if v := reg.Counter("store.quarantined").Value(); v != 0 || s.Len() != n-1 {
			t.Errorf("flip at %d: reopen quarantined %d, Len %d; want 0, %d", at, v, s.Len(), n-1)
		}
		s.Close()
	}
}

// TestLiveWriterTailLeftAlone: a record still arriving in a live
// handle's segment is neither indexed nor quarantined by another
// handle's Open, and handles opened once it is whole serve it.
func TestLiveWriterTailLeftAlone(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	defer w.Close()
	w.Put([]byte("done"), []byte("v"))
	f, err := os.OpenFile(segFiles(t, dir)[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := encodeObject([]byte("arriving"), []byte("value"))
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := mustOpen(t, dir, Options{Reg: reg})
	if v := reg.Counter("store.quarantined").Value(); v != 0 || r.Len() != 1 {
		t.Fatalf("open during a write: quarantined %d, Len %d; want 0, 1", v, r.Len())
	}
	r.Close()
	if _, err := f.Write(rec[len(rec)/2:]); err != nil {
		t.Fatal(err)
	}
	r = mustOpen(t, dir, Options{})
	defer r.Close()
	if got, ok := r.Get([]byte("arriving")); !ok || string(got) != "value" {
		t.Fatalf("finished record: got %q, %v", got, ok)
	}
}

// TestCompactionBoundsDisk writes ten times the cap through one handle.
// Compaction keeps the log within twice the live bytes plus one
// segment, counting each record with its framing.
func TestCompactionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	const capBytes = 64 << 10
	s := mustOpen(t, dir, Options{CapBytes: capBytes})
	val := bytes.Repeat([]byte{9}, 240)
	rec := recLen([]byte("cmp-00000000"), val)
	payload := int64(len("cmp-00000000") + len(val))
	bound := 2*capBytes/payload*rec + segMaxFor(capBytes)
	var peak int64
	for i := 0; int64(i)*payload < 10*capBytes; i++ {
		s.Put([]byte(fmt.Sprintf("cmp-%08d", i)), val)
		peak = max(peak, logBytes(t, dir))
	}
	if peak > bound {
		t.Fatalf("log peaked at %d bytes, bound %d", peak, bound)
	}
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("%d segments: rotation never happened", n)
	}
	t.Logf("log peak %d bytes, bound %d", peak, bound)
	// Every entry the index holds is still readable after compaction.
	s.Close()
	s = mustOpen(t, dir, Options{CapBytes: capBytes})
	defer s.Close()
	if got := s.Occupancy().Bytes; got > capBytes || s.Len() == 0 {
		t.Fatalf("reopened occupancy %+v", s.Occupancy())
	}
}

// TestTwoWritersUnion has two live handles of one directory write
// disjoint keys; a third handle sees the union.
func TestTwoWritersUnion(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{})
	b := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		a.Put([]byte(fmt.Sprintf("a-%d", i)), []byte(fmt.Sprintf("va-%d", i)))
		b.Put([]byte(fmt.Sprintf("b-%d", i)), []byte(fmt.Sprintf("vb-%d", i)))
	}
	c := mustOpen(t, dir, Options{})
	if c.Len() != 40 {
		t.Fatalf("third handle Len = %d, want 40", c.Len())
	}
	for i := 0; i < 20; i++ {
		for _, p := range []string{"a", "b"} {
			got, ok := c.Get([]byte(fmt.Sprintf("%s-%d", p, i)))
			if !ok || string(got) != fmt.Sprintf("v%s-%d", p, i) {
				t.Fatalf("%s-%d: got %q, %v", p, i, got, ok)
			}
		}
	}
	for _, s := range []*Store{a, b, c} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionSparesLiveWriter has one handle evict and compact its
// way through many segments while another stays open. The live
// handle's segment looks fully dead to the compacting one, yet it is
// never unlinked and keeps serving; once the writer closes, the next
// compaction pass takes it.
func TestCompactionSparesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		w.Put([]byte(fmt.Sprintf("w-%d", i)), bytes.Repeat([]byte{1}, 100))
	}
	wseg := segFiles(t, dir)[0]

	const capBytes = 16 << 10
	c := mustOpen(t, dir, Options{CapBytes: capBytes})
	defer c.Close()
	val := bytes.Repeat([]byte{2}, 200)
	put := func(from, to int) {
		for i := from; i < to; i++ {
			c.Put([]byte(fmt.Sprintf("c-%06d", i)), val)
		}
	}
	put(0, 1000)
	if _, err := os.Stat(wseg); err != nil {
		t.Fatalf("live writer's segment unlinked: %v", err)
	}
	w.Put([]byte("w-late"), []byte("still appending"))
	for i := 0; i < 10; i++ {
		if _, ok := w.Get([]byte(fmt.Sprintf("w-%d", i))); !ok {
			t.Fatalf("live writer lost w-%d", i)
		}
	}
	if _, ok := w.Get([]byte("w-late")); !ok {
		t.Fatal("live writer lost its late write")
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	put(1000, 2000)
	if _, err := os.Stat(wseg); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("closed writer's dead segment survived compaction: %v", err)
	}
}

// TestCompactionKeepsUnseenRecords: records a writer appended after
// this handle's Open are unknown to its index; compacting the writer's
// segment once it has closed carries them forward instead of dropping
// them.
func TestCompactionKeepsUnseenRecords(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		w.Put([]byte(fmt.Sprintf("w-%d", i)), bytes.Repeat([]byte{1}, 100))
	}
	wseg := segFiles(t, dir)[0]
	c := mustOpen(t, dir, Options{CapBytes: 64 << 10})
	defer c.Close()
	w.Put([]byte("w-late"), []byte("after c opened"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwriting w's keys leaves w's segment dead in c's view; filling
	// a segment seals it and runs the compaction pass.
	for i := 0; i < 10; i++ {
		c.Put([]byte(fmt.Sprintf("w-%d", i)), bytes.Repeat([]byte{2}, 100))
	}
	for i := 0; int64(i)*100 < segMaxFor(64<<10); i++ {
		c.Put([]byte(fmt.Sprintf("c-%d", i)), bytes.Repeat([]byte{3}, 100))
	}
	if _, err := os.Stat(wseg); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("closed writer's segment not compacted: %v", err)
	}
	if got, ok := c.Get([]byte("w-late")); !ok || string(got) != "after c opened" {
		t.Fatalf("w-late after compaction: got %q, %v", got, ok)
	}
	if got, ok := c.Get([]byte("w-3")); !ok || !bytes.Equal(got, bytes.Repeat([]byte{2}, 100)) {
		t.Fatalf("w-3 after compaction: got %v, %v; want c's value", got, ok)
	}
}

// FuzzOpenSegment opens a store whose log is one segment of arbitrary
// bytes. Open must not fail or panic, every indexed key must be served,
// and every value served must re-encode to a verifying record that the
// input holds verbatim: nothing is served that was not written whole.
func FuzzOpenSegment(f *testing.F) {
	f.Add(append(encodeObject([]byte("k1"), []byte("v1")), encodeObject([]byte("k2"), []byte("v2"))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeLog(t, dir, data)
		s, err := Open(dir, Options{CapBytes: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		var keys [][]byte
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			rec := make([]byte, e.len)
			if _, err := e.seg.f.ReadAt(rec, e.off); err != nil {
				t.Fatalf("reading indexed record: %v", err)
			}
			key, _, err := decodeObject(rec)
			if err != nil {
				t.Fatalf("indexed a record that does not verify: %v", err)
			}
			keys = append(keys, key)
		}
		s.mu.Unlock()
		for _, key := range keys {
			val, ok := s.Get(key)
			if !ok {
				t.Fatalf("indexed key %q not served", key)
			}
			rec := encodeObject(key, val)
			if _, _, err := decodeObject(rec); err != nil || !bytes.Contains(data, rec) {
				t.Fatalf("served %q=%q, not a verifying record of the input", key, val)
			}
		}
	})
}
