package cachestore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// writeStore populates a fresh store in dir with n records and closes
// it, returning the active segment path.
func writeStore(t *testing.T, dir string, n int) string {
	t.Helper()
	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("k%d", i), val(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, segName(1))
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryTruncatesTornTail: a crash mid-append leaves a partial
// record with no trailing newline. The store must open, serve every
// complete record, truncate the torn bytes, and log what it reclaimed.
func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	seg := writeStore(t, dir, 5)
	torn := []byte(`{"format":1,"key_version":"v2","key":"k99","crc32c":"0000`)
	appendBytes(t, seg, torn)
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	var logs strings.Builder
	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2",
		Logf: func(format string, args ...interface{}) { fmt.Fprintf(&logs, format+"\n", args...) }})
	for i := 0; i < 5; i++ {
		if v, ok := s.Get(fmt.Sprintf("k%d", i)); !ok || string(v) != string(val(i)) {
			t.Fatalf("k%d lost to torn-tail recovery: %q, %v", i, v, ok)
		}
	}
	st := s.Stats()
	if st.Records != 5 {
		t.Errorf("Records = %d, want 5", st.Records)
	}
	if want := int64(len(torn)); st.ReclaimedBytes != want {
		t.Errorf("ReclaimedBytes = %d, want %d", st.ReclaimedBytes, want)
	}
	if !strings.Contains(logs.String(), "reclaimed") {
		t.Errorf("recovery did not log the reclaimed bytes: %q", logs.String())
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Errorf("segment size %d after recovery, want %d", after.Size(), before.Size()-int64(len(torn)))
	}

	// New appends land after the truncation point and survive another
	// reopen — the store is fully healthy again.
	s.Put("fresh", val(100))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
	if v, ok := r.Get("fresh"); !ok || string(v) != string(val(100)) {
		t.Fatalf("post-recovery append lost: %q, %v", v, ok)
	}
	if st := r.Stats(); st.Records != 6 || st.CorruptRecords != 0 {
		t.Errorf("second reopen: %+v", st)
	}
}

// TestRecoveryStopsAtCorruptRecord: a flipped byte mid-file fails that
// record's checksum; recovery keeps everything before it and drops the
// rest of the segment.
func TestRecoveryStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	seg := writeStore(t, dir, 5)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Flip a digit inside record 3's value (times of val(2) is [2]).
	lines[2] = bytes.Replace(lines[2], []byte(`"times":[2]`), []byte(`"times":[7]`), 1)
	if err := os.WriteFile(seg, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
	st := s.Stats()
	if st.Records != 2 {
		t.Fatalf("Records = %d, want 2 (the prefix before the corrupt record)", st.Records)
	}
	if st.CorruptRecords == 0 || st.ReclaimedBytes == 0 {
		t.Errorf("corruption not reported: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d (before the corruption) lost", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); ok {
			t.Errorf("k%d (at/after the corruption) served", i)
		}
	}
}

// TestRecoveryCorruptSealedSegment: corruption in a sealed (non-active)
// segment is skipped without truncation — the bytes are counted dead
// and the next compaction rewrites the segment away.
func TestRecoveryCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2", segmentBytes: 128})
	for i := 0; i < 8; i++ {
		s.Put(fmt.Sprintf("k%d", i), val(i))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first (sealed) segment's first record.
	seg1 := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, Options{Dir: dir, KeyVersion: "v2", segmentBytes: 128})
	st := r.Stats()
	if st.CorruptRecords == 0 || st.DeadBytes == 0 {
		t.Errorf("sealed-segment corruption not counted: %+v", st)
	}
	if after, err := os.Stat(seg1); err != nil || after.Size() != int64(len(data)) {
		t.Errorf("sealed segment was truncated (size %d, want %d): %v", after.Size(), len(data), err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.DeadBytes != 0 || st.Segments != 1 {
		t.Errorf("compaction did not reclaim the corrupt segment: %+v", st)
	}
	// Survivors must still verify after the rewrite.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
	if st := rr.Stats(); st.CorruptRecords != 0 {
		t.Errorf("compacted store reopens with %d corrupt records", st.CorruptRecords)
	}
}

// TestCompactionDropsCorruptRecordFromIndex: bit rot discovered while
// compaction copies a record must also remove the key from the index —
// a stale entry would point into a segment that no longer exists, and
// the next Get would dereference a nil segment.
func TestCompactionDropsCorruptRecordFromIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("k%d", i), val(i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Rot k1's value on disk behind the store's back (same inode the
	// store holds open).
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rotted := bytes.Replace(data, []byte(`"times":[1]`), []byte(`"times":[8]`), 1)
	if bytes.Equal(rotted, data) {
		t.Fatal("fixture: k1 record not found in segment")
	}
	if err := os.WriteFile(seg, rotted, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k1"); ok {
		t.Errorf("rotted record served after compaction: %q", v)
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("%s lost by compaction", k)
		}
	}
	if st := s.Stats(); st.Records != 2 || st.CorruptRecords == 0 {
		t.Errorf("after compacting rotted record: %+v", st)
	}
}

// dirFiles reads every file in dir.
func dirFiles(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// recordCuts lists the lengths to cut data to: every record boundary
// and one byte either side of it.
func recordCuts(data []byte) []int {
	cuts := map[int]bool{}
	for b := 0; b <= len(data); b++ {
		if b == 0 || data[b-1] == '\n' {
			for _, c := range []int{b - 1, b, b + 1} {
				if c >= 0 && c <= len(data) {
					cuts[c] = true
				}
			}
		}
	}
	return slices.Sorted(maps.Keys(cuts))
}

// TestCompactionCrashStates: a crash at any point of a compaction pass
// leaves a directory that reopens to the records flushed before it. The
// states are the directory as the pass's copy completes; that directory
// with the file the pass created cut at, and one byte either side of,
// every record boundary; the directory after the pass; and that
// directory with one pre-compaction segment put back, as a remove that
// never persisted. In each, every flushed key is served with its last
// bytes under the key-version stamp it was written with, and a second
// open gives the same index and counters.
func TestCompactionCrashStates(t *testing.T) {
	dir := t.TempDir()
	type stamped struct {
		version string
		value   []byte
	}
	want := map[string]stamped{}
	put := func(s *Store, version, key string, value []byte) {
		t.Helper()
		s.Put(key, value)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		want[key] = stamped{version, value}
	}
	// A record under a version no store below serves, then v2 records
	// that the v3 store serves as compat records.
	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v1", segmentBytes: 256})
	s.Put("orphan", val(99))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, Options{Dir: dir, KeyVersion: "v2", segmentBytes: 256})
	for i := 0; i < 6; i++ {
		put(s, "v2", fmt.Sprintf("old%d", i), val(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var atCopy map[string][]byte
	opts := Options{Dir: dir, KeyVersion: "v3", CompatVersions: []string{"v2"}, segmentBytes: 256}
	opts.afterCompactCopy = func() {
		var err error
		if atCopy, err = dirFiles(dir); err != nil {
			t.Error(err)
		}
	}
	s = mustOpen(t, opts)
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			put(s, "v3", fmt.Sprintf("new%d", i), val(100*round+i))
		}
	}
	put(s, "v3", "old0", val(200))
	put(s, "v3", "old1", val(201))
	before, err := dirFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments < 4 || st.DeadBytes == 0 {
		t.Fatalf("fixture: want rolled segments and superseded records, got %+v", st)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := dirFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if atCopy == nil {
		t.Fatal("afterCompactCopy never ran")
	}

	// After the pass: one segment, numbered above every earlier one.
	maxBefore := 0
	for name := range before {
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil {
			t.Fatalf("fixture: unexpected file %s", name)
		}
		maxBefore = max(maxBefore, id)
	}
	if len(after) != 1 {
		t.Fatalf("after the pass the directory holds %v, want one segment", slices.Sorted(maps.Keys(after)))
	}
	for name := range after {
		if id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)); err != nil || id <= maxBefore {
			t.Fatalf("after the pass the directory holds %s, want a segment numbered above %d", name, maxBefore)
		}
	}

	type state struct {
		name  string
		files map[string][]byte
	}
	states := []state{{"at copy", atCopy}, {"after", after}}
	var created string
	for name := range atCopy {
		if _, ok := before[name]; !ok {
			if created != "" {
				t.Fatalf("the pass created %s and %s", created, name)
			}
			created = name
		}
	}
	if created == "" {
		t.Fatal("the pass created no file")
	}
	for _, cut := range recordCuts(atCopy[created]) {
		files := maps.Clone(atCopy)
		files[created] = atCopy[created][:cut]
		states = append(states, state{fmt.Sprintf("at copy, %s cut to %d bytes", created, cut), files})
	}
	for name, data := range before {
		files := maps.Clone(after)
		files[name] = data
		states = append(states, state{"after, " + name + " put back", files})
	}

	for _, st := range states {
		d := t.TempDir()
		for name, data := range st.files {
			if err := os.WriteFile(filepath.Join(d, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		open := func() (map[string]recordLoc, Stats) {
			r, err := Open(Options{Dir: d, KeyVersion: "v3", CompatVersions: []string{"v2"}, noSync: true})
			if err != nil {
				t.Fatalf("%s: Open: %v", st.name, err)
			}
			defer r.Close()
			r.mu.Lock()
			index := maps.Clone(r.index)
			r.mu.Unlock()
			if len(index) != len(want) {
				t.Errorf("%s: %d keys indexed, want %d", st.name, len(index), len(want))
			}
			for key, w := range want {
				loc, ok := index[key]
				if !ok {
					t.Errorf("%s: %s lost", st.name, key)
					continue
				}
				buf := make([]byte, loc.len)
				if _, err := r.segs[loc.seg].f.ReadAt(buf, loc.off); err != nil {
					t.Fatal(err)
				}
				if rec, err := decodeRecord(buf); err != nil || string(rec.keyVersion) != w.version {
					t.Errorf("%s: %s stamped %q, want %q (%v)", st.name, key, rec.keyVersion, w.version, err)
				}
				if v, ok := r.Get(key); !ok || !bytes.Equal(v, w.value) {
					t.Errorf("%s: %s = %q, %v; want %q", st.name, key, v, ok, w.value)
				}
			}
			return index, r.Stats()
		}
		index1, st1 := open()
		index2, st2 := open()
		if !maps.Equal(index1, index2) {
			t.Errorf("%s: reopen moved the index:\n%v\n%v", st.name, index1, index2)
		}
		if st1.Records != st2.Records || st1.Bytes != st2.Bytes || st1.DeadBytes != st2.DeadBytes {
			t.Errorf("%s: reopen moved the counters:\n%+v\n%+v", st.name, st1, st2)
		}
	}
}

// TestRecoveryEmptyAndGarbageFiles: an empty segment and a wholly
// garbage segment must not prevent the store from opening.
func TestRecoveryEmptyAndGarbageFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
	s.Put("k", val(1))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get("k"); !ok || string(v) != string(val(1)) {
		t.Fatalf("store unusable after garbage recovery: %q, %v", v, ok)
	}
}

// FuzzSegmentReplay opens a store over a mutated segment file, sealed
// (a clean segment follows it) or active. Open never fails or panics
// on the bytes, every record it indexes passes the oracle codec (its
// checksum, its key, a valid JSON value) and is served, and opening
// again is idempotent: the same index and counters, and a third open
// changes nothing the second did not.
func FuzzSegmentReplay(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "segment-format-v1.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, false)
	f.Add(golden, true)
	f.Add(append(golden[:len(golden):len(golden)], golden[:40]...), false)
	f.Add(bytes.Replace(golden, []byte(`"times":[1.25]`), []byte(`"times":[1.26]`), 1), true)
	f.Add([]byte("not json at all\n"), true)
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if sealed {
			clean := appendRecord(nil, "v2", "clean", []byte(`{"times":[1]}`))
			if err := os.WriteFile(filepath.Join(dir, segName(2)), clean, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{Dir: dir, KeyVersion: "v2", CompatVersions: []string{"v1"}, noSync: true}
		open := func() (map[string]recordLoc, Stats) {
			s, err := Open(opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer s.Close()
			s.mu.Lock()
			index := maps.Clone(s.index)
			s.mu.Unlock()
			for key, loc := range index {
				buf := make([]byte, loc.len)
				if _, err := s.segs[loc.seg].f.ReadAt(buf, loc.off); err != nil {
					t.Fatal(err)
				}
				rec, err := oracleDecodeRecord(buf)
				if err != nil || rec.Key != key || !json.Valid(rec.Value) {
					t.Fatalf("indexed record %q for %q fails the oracle: %v", buf, key, err)
				}
				if v, ok := s.Get(key); !ok || !bytes.Equal(v, rec.Value) {
					t.Fatalf("Get(%q) = %q, %v; record holds %q", key, v, ok, rec.Value)
				}
			}
			return index, s.Stats()
		}
		index1, st1 := open()
		index2, st2 := open()
		if !maps.Equal(index1, index2) {
			t.Fatalf("reopen moved the index:\n%v\n%v", index1, index2)
		}
		if st1.Records != st2.Records || st1.Segments != st2.Segments || st1.Bytes != st2.Bytes || st1.DeadBytes != st2.DeadBytes {
			t.Fatalf("reopen moved the counters:\n%+v\n%+v", st1, st2)
		}
		if st2.ReclaimedBytes != 0 {
			t.Fatalf("second open reclaimed %d more bytes", st2.ReclaimedBytes)
		}
		index3, st3 := open()
		if !maps.Equal(index2, index3) || st2 != st3 {
			t.Fatalf("third open differs from second:\n%+v\n%+v", st2, st3)
		}
	})
}
