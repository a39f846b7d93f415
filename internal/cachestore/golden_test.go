package cachestore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The fixtures mirrored in testdata/segment-format-v1.ndjson. The
// fourth record carries key version "v1" to pin the version-mismatch
// behaviour: readable, never served.
var goldenRecords = []struct{ keyVersion, key, value string }{
	{"v2", "00112233445566778899aabbccddeeff",
		`{"index":0,"cell":{"trials":2},"key":"00112233445566778899aabbccddeeff","n":64,"m":192,"times":[3,4.5],"summary":{}}`},
	{"v2", "ffeeddccbbaa99887766554433221100", `{"times":[1.25],"values":{"work":12}}`},
	{"v2", "0f1e2d3c4b5a69788796a5b4c3d2e1f0", `{"coverage":{"q100":7.5,"q50":3.25}}`},
	{"v1", "aaaabbbbccccddddaaaabbbbccccdddd", `{"times":[9]}`},
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "segment-format-v1.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordEncodingGolden pins the on-disk record encoding byte for
// byte against the checked-in golden file. If this test fails, the
// record format changed: bump Format (old stores then recover cleanly
// as format-mismatch records) and regenerate the golden file — never
// let the encoding drift silently, or existing caches turn into
// corruption reports on the next open.
func TestRecordEncodingGolden(t *testing.T) {
	var got []byte
	for _, r := range goldenRecords {
		got = appendRecord(got, r.keyVersion, r.key, []byte(r.value))
	}
	if want := goldenBytes(t); !bytes.Equal(got, want) {
		t.Errorf("record encoding drifted from golden file\n got: %q\nwant: %q", got, want)
	}
}

// TestStoreWritesGoldenFormat: a store populated through the public
// API produces exactly the golden segment bytes — the write path and
// the pinned format cannot diverge.
func TestStoreWritesGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, KeyVersion: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenRecords[:3] { // the v2 records
		s.Put(r.key, []byte(r.value))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenBytes(t)
	want = want[:bytes.LastIndexByte(want[:len(want)-1], '\n')+1] // drop the v1 record
	if !bytes.Equal(got, want) {
		t.Errorf("store wrote bytes that differ from the golden format\n got: %q\nwant: %q", got, want)
	}
}

// TestStoreReadsGoldenFormat: a segment file written by the pinned
// format opens correctly — v2 records are served verbatim, the v1
// record is ignored (stale key version) and counted dead.
func TestStoreReadsGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), goldenBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, KeyVersion: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range goldenRecords[:3] {
		v, ok := s.Get(r.key)
		if !ok {
			t.Fatalf("golden record %s missing after open", r.key)
		}
		if string(v) != r.value {
			t.Errorf("golden record %s: value %q, want %q", r.key, v, r.value)
		}
	}
	if _, ok := s.Get(goldenRecords[3].key); ok {
		t.Error("record with stale key version v1 was served")
	}
	st := s.Stats()
	if st.Records != 3 {
		t.Errorf("Records = %d, want 3", st.Records)
	}
	if st.DeadBytes == 0 {
		t.Error("stale-key-version record not counted as dead bytes")
	}

	// Compaction reclaims the stale record.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.DeadBytes != 0 || st.Records != 3 || st.ReclaimedBytes == 0 {
		t.Errorf("after compaction: %+v", st)
	}
	if _, ok := s.Get(goldenRecords[0].key); !ok {
		t.Error("live record lost by compaction")
	}
}

// TestChecksumCoversAssociation: swapping fields between two records
// whose parts are individually intact must fail verification.
func TestChecksumCoversAssociation(t *testing.T) {
	a := appendRecord(nil, "v2", "aaaa", []byte(`{"x":1}`))
	if _, err := decodeRecord(a); err != nil {
		t.Fatalf("intact record rejected: %v", err)
	}
	swapped := bytes.Replace(a, []byte(`"key":"aaaa"`), []byte(`"key":"bbbb"`), 1)
	if _, err := decodeRecord(swapped); err == nil {
		t.Error("record with re-associated key passed checksum")
	}
	flipped := bytes.Replace(a, []byte(`{"x":1}`), []byte(`{"x":2}`), 1)
	if _, err := decodeRecord(flipped); err == nil {
		t.Error("record with altered value passed checksum")
	}
}
