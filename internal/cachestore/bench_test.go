package cachestore

import (
	"encoding/json"
	"fmt"
	"testing"
)

// benchValue is shaped like a cell result of a 64-node, 2-trial cell:
// the spec, a key, two trial times and their summary.
const benchValue = `{"index":0,"cell":{"family":"hypercube","n":64,"protocol":"push-pull","timing":"sync",` +
	`"trials":2,"graph_seed":1,"trial_seed":1},"key":"%064x","graph":"hypercube(6)","n":64,"m":192,` +
	`"times":[7,8],"summary":{"n":2,"mean":7.5,"std":0.7071067811865476,"min":7,"max":8,"median":7.5,` +
	`"q05":7.05,"q25":7.25,"q75":7.75,"q95":7.95,"ci95_lo":1.1470843530085545,"ci95_hi":13.852915646991446}}`

func benchRecords(n int) (keys []string, values [][]byte) {
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("%032x", i))
		values = append(values, []byte(fmt.Sprintf(benchValue, i)))
	}
	return keys, values
}

// benchStore opens a store in dir holding n flushed records.
func benchStore(b *testing.B, dir string, n int) (*Store, []string) {
	b.Helper()
	s, err := Open(Options{Dir: dir, KeyVersion: "v2", noSync: true})
	if err != nil {
		b.Fatal(err)
	}
	keys, values := benchRecords(n)
	for i := range keys {
		s.Put(keys[i], values[i])
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s, keys
}

// benchResult decodes part of benchValue, as the service decodes a
// cell result.
type benchResult struct {
	Key   string    `json:"key"`
	N     int       `json:"n"`
	M     int       `json:"m"`
	Times []float64 `json:"times"`
}

// BenchmarkStoreGet times a disk read the way the service reads: the
// read, layout parse, checksum, key match, and the value's one JSON
// pass as a decode into the caller's type.
func BenchmarkStoreGet(b *testing.B) {
	s, keys := benchStore(b, b.TempDir(), 256)
	defer s.Close()
	var v benchResult
	decode := func(raw []byte) error { v = benchResult{}; return json.Unmarshal(raw, &v) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)], decode); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStorePut times Put's compaction and enqueue plus the
// flusher's encode and (unsynced) append, flushed every 1024 Puts.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), KeyVersion: "v2", noSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys, values := benchRecords(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(keys[i%len(keys)], values[i%len(values)])
		if i%len(keys) == len(keys)-1 {
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpenReplay times Open over 1024 records: the segment scan,
// each record's parse, checksum and JSON check, and the index rebuild.
func BenchmarkOpenReplay(b *testing.B) {
	dir := b.TempDir()
	s, _ := benchStore(b, dir, 1024)
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{Dir: dir, KeyVersion: "v2"})
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.Records != 1024 {
			b.Fatalf("replayed %d records", st.Records)
		}
		s.Close()
	}
}

// BenchmarkCompact times one compaction pass over 20 000 live records
// across rolled segments plus as many superseded ones: the scan of the
// index, the copy of every live record into one new segment, and the
// removal of the old ones. Syncs are off, so the pass's file writes are
// timed but not their fsyncs. What a pass allocates should be its copy
// chunk and index maps, not the live bytes.
func BenchmarkCompact(b *testing.B) {
	const live = 20000
	// The trigger is out of reach, so no pass runs inside the set-up.
	s, err := Open(Options{Dir: b.TempDir(), KeyVersion: "v2", noSync: true, compactMinBytes: 1 << 62})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	keys, values := benchRecords(live)
	// putAll writes every key once, superseding its last record.
	putAll := func() {
		for i := range keys {
			s.Put(keys[i], values[i])
			if i%1024 == 1023 || i == len(keys)-1 {
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	putAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		putAll()
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := s.Stats(); st.Records != live || st.Segments != 1 || st.Dropped != 0 {
		b.Fatalf("after compaction: %+v", st)
	}
}
