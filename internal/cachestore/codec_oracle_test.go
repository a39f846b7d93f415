package cachestore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// oracleChecksum, oracleEncodeRecord and oracleDecodeRecord are the
// encoding/json record codec that appendRecord and decodeRecord
// replaced, kept verbatim as the oracle: the pinned-layout codec must
// write the bytes this encoder wrote and read every line the way this
// decoder read it.
func oracleChecksum(keyVersion, key string, value []byte) string {
	h := crc32.New(crcTable)
	io.WriteString(h, keyVersion)
	h.Write([]byte{0})
	io.WriteString(h, key)
	h.Write([]byte{0})
	h.Write(value)
	return fmt.Sprintf("%08x", h.Sum32())
}

func oracleEncodeRecord(keyVersion, key string, value []byte) ([]byte, error) {
	rec := record{
		Format:     Format,
		KeyVersion: keyVersion,
		Key:        key,
		CRC:        oracleChecksum(keyVersion, key, value),
		Value:      json.RawMessage(value),
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func oracleDecodeRecord(line []byte) (record, error) {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, fmt.Errorf("cachestore: parsing record: %w", err)
	}
	if rec.Format != Format {
		return rec, fmt.Errorf("cachestore: record format %d, want %d", rec.Format, Format)
	}
	if got := oracleChecksum(rec.KeyVersion, rec.Key, rec.Value); got != rec.CRC {
		return rec, fmt.Errorf("cachestore: checksum mismatch: %s != %s", got, rec.CRC)
	}
	return rec, nil
}

// sameRecord reports whether the oracle's record has rec's fields.
func sameRecord(rec recordView, want record) bool {
	return string(rec.keyVersion) == want.KeyVersion && string(rec.key) == want.Key &&
		bytes.Equal(rec.value, want.Value)
}

// checkAgainstOracle fails t unless decodeValidRecord and the oracle
// give line the same verdict and, on acceptance, the same fields, and
// unless decodeRecord accepts no line the oracle rejects other than
// for an invalid value.
func checkAgainstOracle(t *testing.T, line []byte) {
	t.Helper()
	want, werr := oracleDecodeRecord(line)
	got, err := decodeValidRecord(line)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("verdicts differ on %q: got %v, oracle %v", line, err, werr)
	case err == nil && !sameRecord(got, want):
		t.Fatalf("fields differ on %q: got %q %q %q, oracle %+v", line, got.keyVersion, got.key, got.value, want)
	}
	if raw, err := decodeRecord(line); err == nil && werr != nil && json.Valid(raw.value) {
		t.Fatalf("decodeRecord accepts %q with a valid value; oracle: %v", line, werr)
	}
}

// FuzzDecodeRecord checks the pinned-layout codec against the oracle.
// Every line appendRecord writes for a (key version, key, compact
// value) decodes the same on both paths, to the fields it was written
// from when the strings are valid UTF-8; its bytes are the old
// encoder's wherever the old encoder wrote a readable record (it
// HTML-escaped <, > and & inside the value, which the checksum does
// not cover, so such a record never verified); and a line mutated by
// one byte gets the oracle's verdict and fields.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range goldenRecords {
		f.Add(r.keyVersion, r.key, []byte(r.value), uint16(30), byte('x'), uint8(0))
	}
	f.Add("v4", "a<b", []byte(`{"s":"x&y"}`), uint16(0), byte('{'), uint8(1))
	f.Add("v4", "k\"q", []byte(` [1, 2] `), uint16(60), byte(' '), uint8(2))
	f.Add("v4", "k", []byte(`"é"`), uint16(400), byte('}'), uint8(3))
	f.Fuzz(func(t *testing.T, keyVersion, key string, value []byte, pos uint16, b byte, op uint8) {
		var compact bytes.Buffer
		if json.Compact(&compact, value) != nil {
			return // Put stores only compact valid JSON
		}
		value = compact.Bytes()
		line := appendRecord(nil, keyVersion, key, value)
		old, err := oracleEncodeRecord(keyVersion, key, value)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := oracleDecodeRecord(old); err == nil && !bytes.Equal(line, old) {
			t.Fatalf("encoding differs from the old encoder\n got: %q\nwant: %q", line, old)
		}
		checkAgainstOracle(t, line)
		if rec, err := decodeRecord(line); utf8.ValidString(keyVersion) && utf8.ValidString(key) &&
			(err != nil || !sameRecord(rec, record{KeyVersion: keyVersion, Key: key, Value: value})) {
			t.Fatalf("written record does not read back: %q: %v", line, err)
		}

		i := int(pos) % len(line)
		mutated := append([]byte(nil), line...)
		switch op % 4 {
		case 0:
			mutated[i] = b
		case 1:
			mutated = append(mutated[:i], append([]byte{b}, mutated[i:]...)...)
		case 2:
			mutated = append(mutated[:i], mutated[i+1:]...)
		case 3:
			mutated = mutated[:i]
		}
		checkAgainstOracle(t, mutated)
	})
}

// TestGeneralDecoderLines: lines outside the pinned layout take the
// general decoder, and each gets the verdict it had under the oracle
// codec, with the same recovery counters. Each line sits between two
// good records in the active segment: a rejected one ends the scan
// and is truncated away with the record after it.
func TestGeneralDecoderLines(t *testing.T) {
	value := []byte(`{"times":[1,2],"n":4}`)
	line := func(keyVersion, key string, value []byte) []byte {
		l, err := oracleEncodeRecord(keyVersion, key, value)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	good := line("v2", "k-good", value)
	withTail := func(tail string) []byte {
		return []byte(string(bytes.TrimSuffix(good, []byte{'\n'})) + tail + "\n")
	}
	rows := []struct {
		name   string
		line   []byte
		key    string
		accept bool
	}{
		{"escaped key", line("v2", "a<b", value), "a<b", true},
		{"format 2", marshal(record{Format: 2, KeyVersion: "v2", Key: "k-good",
			CRC: oracleChecksum("v2", "k-good", value), Value: value}), "k-good", false},
		{"format 01", bytes.Replace(good, []byte(`"format":1`), []byte(`"format":01`), 1), "k-good", false},
		{"reordered fields", marshal(map[string]any{"format": 1, "key_version": "v2", "key": "k-good",
			"crc32c": oracleChecksum("v2", "k-good", value), "value": json.RawMessage(value)}), "k-good", true},
		{"space before value", bytes.Replace(good, []byte(`"value":`), []byte(`"value": `), 1), "k-good", true},
		{"trailing spaces", withTail("  "), "k-good", true},
		{"trailing bytes", withTail(" x"), "k-good", false},
		{"value not a cell result", line("v2", "k-good", []byte(`{"times":"not-an-array"}`)), "k-good", true},
	}
	first, last := line("v2", "k-first", value), line("v2", "k-last", value)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if _, err := oracleDecodeRecord(row.line); (err == nil) != row.accept {
				t.Fatalf("fixture: oracle verdict %v, row says accept=%v", err, row.accept)
			}
			checkAgainstOracle(t, row.line)
			dir := t.TempDir()
			seg := bytes.Join([][]byte{first, row.line, last}, nil)
			if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			s := mustOpen(t, Options{Dir: dir, KeyVersion: "v2"})
			want := Stats{Records: 3, Segments: 1, Bytes: int64(len(seg))}
			if !row.accept {
				want = Stats{Records: 1, Segments: 1, Bytes: int64(len(first)),
					ReclaimedBytes: int64(len(row.line) + len(last)), CorruptRecords: 1}
			}
			if st := s.Stats(); st != want {
				t.Errorf("stats after open:\n got %+v\nwant %+v", st, want)
			}
			if _, ok := s.Get(row.key); ok != row.accept {
				t.Errorf("Get(%q) hit = %v, want %v", row.key, ok, row.accept)
			}
		})
	}
}
