// Package cachestore implements a crash-safe, append-only on-disk
// store for completed cell results: the persistent tier under the
// service's in-memory result LRU.
//
// Layout: the store directory holds numbered segment files
// (seg-00000001.ndjson, ...), each an append-only sequence of NDJSON
// records. A record carries the store format version, the cache-key
// version the key was computed under, the key, a CRC-32C checksum, and
// the value (an opaque JSON document). Records are immutable once
// written; a repeated Put of a key appends a superseding record, and
// the previous one becomes dead weight until compaction rewrites the
// live set into a fresh segment.
//
// Durability model: Put enqueues and returns immediately (write-behind
// — the hot path never blocks on fsync); a background flusher appends
// queued records in batches and fsyncs each batch. A segment's
// directory entry is made durable when the segment is created, before
// any record in it is acknowledged. A crash can lose only records still
// in the queue, never corrupt what was already synced: recovery replays
// the segments in id order, a key's later record superseding its
// earlier ones, scans each segment record by record, stops at the first
// torn or corrupt record, truncates a torn active-segment tail, and
// reports the reclaimed bytes. Records whose cache-key version does not
// match the store's configured version are ignored on open and
// reclaimed by the next compaction — a key-format bump can never alias
// stale results.
//
// Compaction is an ordinary append: a pass creates the next segment,
// copies every live record into it verbatim, fsyncs, and only then
// removes the older segments. A crash mid-pass leaves the old segments
// and a prefix of the copies, which replay after their originals as the
// same bytes; a remove that never persisted leaves an old segment that
// the copies supersede. Either way the store reopens to the same
// records.
//
// Reads parse the pinned record layout: the encoder writes one fixed
// field order (pinned byte for byte by testdata/segment-format-v1.ndjson),
// so a record is read by matching that layout in place, its header
// strings under internal/jsonlayout's one plain-string rule, and only a
// line in another layout, or one that fails verification there, goes
// through encoding/json. A value gets its JSON check once: on a read,
// in the caller's decode (or json.Valid when there is none); at
// recovery and compaction, with json.Valid on every value.
package cachestore

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rumor/internal/jsonlayout"
	"rumor/internal/obs"
)

// Format is the on-disk record format version. Any change to the
// record schema must bump it; the golden-format test pins the current
// encoding byte for byte.
const Format = 1

const (
	segPrefix = "seg-"
	segSuffix = ".ndjson"
)

// DefaultQueueLimit bounds the write-behind queue; callers batching
// Puts stay under it.
const DefaultQueueLimit = 4096

const (
	defaultSegmentBytes    = 4 << 20
	defaultCompactFraction = 0.5
	defaultCompactMinBytes = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Store.
type Options struct {
	// Dir is the store directory; created if missing.
	Dir string
	// KeyVersion is the cache-key version the caller's keys are
	// computed under (e.g. service.CellKeyVersion). Records written
	// under any other version — except those listed in CompatVersions —
	// are ignored on open and reclaimed by compaction. Required.
	KeyVersion string
	// CompatVersions lists older key versions whose records are still
	// served (e.g. service.CellKeyCompatVersions after an append-only
	// key-schema bump: old specs keep rendering their old keys, so the
	// cached values remain exact). Compat records keep their original
	// version stamp through compaction; new writes always use
	// KeyVersion.
	CompatVersions []string
	// Logf receives recovery and compaction log lines; nil discards.
	Logf func(format string, args ...interface{})
	// Metrics instruments the store (flush latency, torn-tail
	// recoveries, compactions, plus scrape-time mirrors of Stats); nil
	// means off. Create it with NewMetrics before Open so recovery is
	// already instrumented.
	Metrics *Metrics

	// Tuning with one value in use outside this package's tests, which
	// set these to reach rolling, drops and compaction on small inputs;
	// zero selects the default.
	segmentBytes int64 // rolls the active segment past this size
	// queueLimit bounds the write-behind queue (DefaultQueueLimit); a Put
	// past the bound is dropped (counted in Stats.Dropped — losing a
	// cache write is correctness-neutral, the result is just recomputed
	// next time).
	queueLimit      int
	compactFraction float64 // background compaction once dead bytes exceed this share of all bytes...
	compactMinBytes int64   // ...and this volume
	noSync          bool    // skip every fsync, of segments and of the directory
	// afterCompactCopy runs between compaction's copy and its index swap.
	afterCompactCopy func()
}

// Stats is a point-in-time snapshot of store counters. All fields are
// taken under one lock, so a snapshot is internally consistent.
type Stats struct {
	// Records is the number of live (indexed) records.
	Records int `json:"records"`
	// Segments is the number of segment files.
	Segments int `json:"segments"`
	// Bytes is the total on-disk size across segments.
	Bytes int64 `json:"bytes"`
	// DeadBytes counts superseded, version-mismatched, and skipped
	// corrupt bytes awaiting compaction.
	DeadBytes int64 `json:"dead_bytes"`
	// Pending is the current write-behind queue length.
	Pending int `json:"pending"`
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Appends counts records durably written; Flushes counts fsync
	// batches; Dropped counts Puts lost to a full queue, invalid
	// values, or write errors.
	Appends uint64 `json:"appends"`
	Flushes uint64 `json:"flushes"`
	Dropped uint64 `json:"dropped"`
	// Compactions counts completed compaction passes; ReclaimedBytes
	// totals bytes removed by recovery truncation and compaction.
	Compactions    uint64 `json:"compactions"`
	ReclaimedBytes int64  `json:"reclaimed_bytes"`
	// CorruptRecords counts records rejected by checksum or parse
	// failures (at open or on read).
	CorruptRecords uint64 `json:"corrupt_records"`
}

// record is the on-disk NDJSON schema. Field order is part of the
// format: appendRecord writes the fields in this order, the general
// decoder reads them in any order, and the golden test pins the bytes.
type record struct {
	Format     int             `json:"format"`
	KeyVersion string          `json:"key_version"`
	Key        string          `json:"key"`
	CRC        string          `json:"crc32c"`
	Value      json.RawMessage `json:"value"`
}

// recordView is a verified record's fields. On the fast path they are
// sub-slices of the line they were read from.
type recordView struct {
	keyVersion, key, value []byte
}

// The pinned v1 layout around the three header strings and the value:
// {"format":1,"key_version":"…","key":"…","crc32c":"xxxxxxxx","value":…}
const (
	layoutHead  = `{"format":1,"key_version":"`
	layoutKey   = `","key":"`
	layoutCRC   = `","crc32c":"`
	layoutValue = `","value":`
)

var nul = []byte{0}

// checksum covers the key version, the key, and the value bytes, each
// separated by a NUL (which JSON strings cannot contain unescaped), so
// a record whose fields were individually valid but re-associated by
// corruption still fails verification.
func checksum(keyVersion, key, value []byte) uint32 {
	c := crc32.Update(0, crcTable, keyVersion)
	c = crc32.Update(c, crcTable, nul)
	c = crc32.Update(c, crcTable, key)
	c = crc32.Update(c, crcTable, nul)
	return crc32.Update(c, crcTable, value)
}

// appendCRC appends c as the 8 lower-case hex digits the record stores.
func appendCRC(dst []byte, c uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], c)
	return hex.AppendEncode(dst, b[:])
}

// appendRecord appends one record line, trailing newline included, in
// the pinned layout. value must be compact valid JSON; it is written
// verbatim, so the bytes read back are the bytes checksummed.
func appendRecord(dst []byte, keyVersion, key string, value []byte) []byte {
	if !jsonlayout.Plain(keyVersion) || !jsonlayout.Plain(key) {
		// json.Marshal escapes the strings and writes the same field
		// order; a placeholder stands in for the value, which is
		// spliced in verbatim as on the plain path.
		line, _ := json.Marshal(record{
			Format:     Format,
			KeyVersion: keyVersion,
			Key:        key,
			CRC:        string(appendCRC(nil, checksum([]byte(keyVersion), []byte(key), value))),
			Value:      json.RawMessage("0"),
		})
		dst = append(dst, line[:len(line)-len("0}")]...)
	} else {
		dst = append(dst, layoutHead...)
		kv := len(dst)
		dst = append(dst, keyVersion...)
		kvEnd := len(dst)
		dst = append(dst, layoutKey...)
		k := len(dst)
		dst = append(dst, key...)
		sum := checksum(dst[kv:kvEnd], dst[k:], value)
		dst = append(dst, layoutCRC...)
		dst = appendCRC(dst, sum)
		dst = append(dst, layoutValue...)
	}
	dst = append(dst, value...)
	return append(dst, '}', '\n')
}

// decodeRecord parses and verifies one record line (with or without
// its trailing newline): format, then checksum. A line in the pinned
// layout is parsed in place, its value a sub-slice of line. Any other
// line, or one that fails verification there, gets its verdict from
// the general decoder. The value is not checked as JSON here: a read
// leaves that to its caller's decode, while recovery and compaction
// use decodeValidRecord.
func decodeRecord(line []byte) (recordView, error) {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if rec, ok := parseLayout(line); ok {
		return rec, nil
	}
	return decodeGeneral(line)
}

// decodeValidRecord is decodeRecord plus a JSON validity check of the
// value.
func decodeValidRecord(line []byte) (recordView, error) {
	rec, err := decodeRecord(line)
	if err == nil && !json.Valid(rec.value) {
		// Only a pinned-layout line reaches this; the general decoder
		// states why the whole line is no valid record.
		return decodeGeneral(bytes.TrimSuffix(line, []byte{'\n'}))
	}
	return rec, err
}

// parseLayout reads line in the layout appendRecord writes and reports
// whether it is that layout with a matching checksum. The three strings
// must be jsonlayout.Plain (no escapes) and the value must start and end
// on a non-space byte, so that an accepted line decodes to the same
// fields under encoding/json whenever its value is valid JSON.
func parseLayout(line []byte) (recordView, bool) {
	var rec recordView
	rest, ok := bytes.CutPrefix(line, []byte(layoutHead))
	if !ok {
		return rec, false
	}
	var crc []byte
	if rec.keyVersion, rest, ok = jsonlayout.CutString(rest, layoutKey); !ok {
		return rec, false
	}
	if rec.key, rest, ok = jsonlayout.CutString(rest, layoutCRC); !ok {
		return rec, false
	}
	if crc, rest, ok = jsonlayout.CutString(rest, layoutValue); !ok || len(crc) != 8 {
		return rec, false
	}
	n := len(rest) - 1
	if n < 1 || rest[n] != '}' || len(bytes.TrimSpace(rest[:n])) != n {
		return rec, false
	}
	rec.value = rest[:n]
	var want [8]byte
	if !bytes.Equal(appendCRC(want[:0], checksum(rec.keyVersion, rec.key, rec.value)), crc) {
		return rec, false
	}
	return rec, true
}

// decodeGeneral decodes a line in any field order through
// encoding/json, which also checks the whole line, value included, as
// JSON.
func decodeGeneral(line []byte) (recordView, error) {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return recordView{}, fmt.Errorf("cachestore: parsing record: %w", err)
	}
	if rec.Format != Format {
		return recordView{}, fmt.Errorf("cachestore: record format %d, want %d", rec.Format, Format)
	}
	kv, key := []byte(rec.KeyVersion), []byte(rec.Key)
	if got := string(appendCRC(nil, checksum(kv, key, rec.Value))); got != rec.CRC {
		return recordView{}, fmt.Errorf("cachestore: checksum mismatch: %s != %s", got, rec.CRC)
	}
	return recordView{keyVersion: kv, key: key, value: rec.Value}, nil
}

// segment is one on-disk file. Compaction unlinks and closes
// superseded segments as soon as the index is swapped; a read that
// already captured the old handle fails with ErrClosed and retries
// through the fresh index (see Get).
type segment struct {
	id   int
	path string
	f    *os.File
	size int64
}

func segName(id int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, id, segSuffix)
}

// recordLoc locates one live record.
type recordLoc struct {
	seg int
	off int64
	len int64
}

// queued is one write-behind entry.
type queued struct {
	key   string
	value []byte
}

// Store is the persistent cell-result store. All methods are safe for
// concurrent use.
type Store struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // wakes the flusher; broadcast on queue/flush/compact transitions
	index   map[string]recordLoc
	segs    map[int]*segment
	active  int // id of the segment appends go to
	nextSeg int
	queue   []queued
	pending map[string][]byte // queued values, readable before they are flushed
	writing int               // records currently being written by the flusher
	st      Stats
	closed  bool
	compact bool // compaction requested (by trigger or Compact)
	ioErr   error

	flusherDone chan struct{}
}

// Open opens (or creates) the store in opts.Dir, replaying every
// segment to rebuild the index. Torn or corrupt tails are skipped and
// reported; a torn tail on the active segment is truncated away so new
// appends start from a clean record boundary.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("cachestore: Options.Dir is required")
	}
	if opts.KeyVersion == "" {
		return nil, errors.New("cachestore: Options.KeyVersion is required")
	}
	opts.segmentBytes = cmp.Or(opts.segmentBytes, defaultSegmentBytes)
	opts.queueLimit = cmp.Or(opts.queueLimit, DefaultQueueLimit)
	opts.compactFraction = cmp.Or(opts.compactFraction, defaultCompactFraction)
	opts.compactMinBytes = cmp.Or(opts.compactMinBytes, defaultCompactMinBytes)
	opts.Metrics = obs.OrZero(opts.Metrics)
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts:        opts,
		index:       make(map[string]recordLoc),
		segs:        make(map[int]*segment),
		pending:     make(map[string][]byte),
		nextSeg:     1,
		flusherDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	opts.Metrics.track(s)
	go s.flusher()
	return s, nil
}

func (s *Store) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// compatVersion reports whether v is an accepted legacy key version.
func (s *Store) compatVersion(v string) bool {
	for _, c := range s.opts.CompatVersions {
		if v == c {
			return true
		}
	}
	return false
}

// recover scans existing segments in id order and rebuilds the index.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return err
	}
	var ids []int
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".compact") {
			// An earlier release's compaction temp file, cut short by a
			// crash: the old segments are intact, so it is garbage.
			os.Remove(filepath.Join(s.opts.Dir, name))
			continue
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || id < 1 {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := s.recoverSegment(id, i == len(ids)-1); err != nil {
			return err
		}
	}
	if len(ids) == 0 {
		_, err := s.createSegment()
		return err
	}
	s.active = ids[len(ids)-1]
	s.nextSeg = s.active + 1
	return nil
}

// recoverSegment replays one segment file. Scanning stops at the first
// torn or corrupt record: the remainder of the segment is unreachable
// (reclaimed by truncation when the segment is the active one, by
// compaction otherwise).
func (s *Store) recoverSegment(id int, active bool) error {
	path := filepath.Join(s.opts.Dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	size := info.Size()
	seg := &segment{id: id, path: path, f: f}

	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	var bad error
	for off < size {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			bad = errors.New("cachestore: torn record (no trailing newline)")
			break
		}
		if err != nil {
			f.Close()
			return err
		}
		rec, derr := decodeValidRecord(line)
		if derr != nil {
			bad = derr
			break
		}
		n := int64(len(line))
		switch {
		case string(rec.keyVersion) != s.opts.KeyVersion && !s.compatVersion(string(rec.keyVersion)):
			// Stale key format: never served, reclaimed by compaction.
			s.st.DeadBytes += n
		default:
			key := string(rec.key)
			if old, ok := s.index[key]; ok {
				s.st.DeadBytes += old.len
				s.st.Records--
			}
			s.index[key] = recordLoc{seg: id, off: off, len: n}
			s.st.Records++
		}
		off += n
	}
	seg.size = off
	if bad != nil {
		reclaimed := size - off
		s.st.CorruptRecords++
		if active {
			if err := f.Truncate(off); err != nil {
				f.Close()
				return fmt.Errorf("cachestore: truncating torn tail of %s: %w", path, err)
			}
			s.st.ReclaimedBytes += reclaimed
			s.opts.Metrics.tornTails.Inc()
			s.logf("cachestore: %s: %v at offset %d; truncated, reclaimed %d bytes", segName(id), bad, off, reclaimed)
		} else {
			// A sealed segment is never appended to again; count the
			// tail dead so compaction rewrites the segment away.
			s.st.DeadBytes += reclaimed
			seg.size = size
			s.logf("cachestore: %s: %v at offset %d; skipping %d bytes until compaction", segName(id), bad, off, reclaimed)
		}
	}
	s.segs[id] = seg
	s.st.Segments = len(s.segs)
	s.st.Bytes += seg.size
	return nil
}

// createSegment creates the next segment file, makes its directory
// entry durable, and makes it the active segment, so no record is
// acknowledged in a file a crash could still unname. Only the flusher
// calls it (or Open, before the flusher starts), and never under s.mu:
// a Get must not wait on the directory sync.
func (s *Store) createSegment() (*segment, error) {
	id := s.nextSeg
	s.nextSeg++
	path := filepath.Join(s.opts.Dir, segName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{id: id, path: path, f: f}
	s.mu.Lock()
	s.segs[id] = seg
	s.st.Segments = len(s.segs)
	s.active = id
	s.mu.Unlock()
	return seg, nil
}

// syncDir makes the store directory's entries durable.
func (s *Store) syncDir() error {
	if s.opts.noSync {
		return nil
	}
	d, err := os.Open(s.opts.Dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Has reports whether key is present (indexed or queued). It never
// touches the hit/miss counters.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[key]; ok {
		return true
	}
	_, ok := s.index[key]
	return ok
}

// Get returns the stored value for key and reports whether it was
// found. Every read checks the value as JSON once: each decode given
// runs in turn on the checksum-verified bytes (typically json.Unmarshal
// into the caller's type, so a value is validated and decoded in one
// pass); with none, the check is json.Valid. A record that fails its
// checksum, its key match or that check is dropped from the index,
// counted in CorruptRecords, and reported as a miss, so the caller's
// next Put writes a fresh record. The returned bytes are the caller's.
func (s *Store) Get(key string, decode ...func(value []byte) error) ([]byte, bool) {
	s.mu.Lock()
	if v, ok := s.pending[key]; ok {
		s.mu.Unlock()
		v = append([]byte(nil), v...)
		err := checkValue(v, decode)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			s.logf("cachestore: queued value for %s fails its check: %v", key, err)
			s.st.CorruptRecords++
			s.st.Misses++
			return nil, false
		}
		s.st.Hits++
		return v, true
	}
	loc, ok := s.index[key]
	if !ok {
		s.st.Misses++
		s.mu.Unlock()
		return nil, false
	}
	seg := s.segs[loc.seg]
	s.mu.Unlock()

	buf := make([]byte, loc.len)
	_, err := seg.f.ReadAt(buf, loc.off)
	var rec recordView
	if err == nil {
		rec, err = decodeRecord(buf)
		if err == nil && string(rec.key) != key {
			err = fmt.Errorf("cachestore: record at %s+%d holds key %s, want %s", segName(loc.seg), loc.off, rec.key, key)
		}
		if err == nil {
			err = checkValue(rec.value, decode)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The index entry may have moved under us (compaction swapped
		// segments between the lookup and the read); retry via the
		// current index before declaring the record corrupt.
		if cur, ok := s.index[key]; ok && cur != loc {
			s.mu.Unlock()
			v, hit := s.Get(key, decode...)
			s.mu.Lock()
			return v, hit
		}
		s.logf("cachestore: dropping unreadable record for %s: %v", key, err)
		if cur, ok := s.index[key]; ok && cur == loc {
			delete(s.index, key)
			s.st.Records--
			s.st.DeadBytes += loc.len
		}
		s.st.CorruptRecords++
		s.st.Misses++
		return nil, false
	}
	s.st.Hits++
	return rec.value, true
}

var errInvalidValue = errors.New("cachestore: value is not valid JSON")

// checkValue runs a read's value check: each decode, or json.Valid.
func checkValue(value []byte, decode []func([]byte) error) error {
	if len(decode) == 0 {
		if !json.Valid(value) {
			return errInvalidValue
		}
		return nil
	}
	for _, d := range decode {
		if err := d(value); err != nil {
			return err
		}
	}
	return nil
}

// Put enqueues a write-behind append of value (which must be a valid
// JSON document) under key. It returns immediately; durability lags by
// at most one flush batch. A Put that finds the queue full, the store
// closed, or the value invalid is dropped and counted.
func (s *Store) Put(key string, value []byte) {
	// Compact is the validity check (it rejects what json.Valid
	// rejects), and makes every stored value the one compact form.
	compact := &bytes.Buffer{}
	if err := json.Compact(compact, value); err != nil {
		s.mu.Lock()
		s.st.Dropped++
		s.mu.Unlock()
		s.logf("cachestore: dropping invalid JSON value for %s", key)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.queue) >= s.opts.queueLimit {
		s.st.Dropped++
		return
	}
	v := compact.Bytes()
	s.queue = append(s.queue, queued{key: key, value: v})
	s.pending[key] = v
	s.cond.Broadcast()
}

// Flush blocks until every record queued before the call is durably on
// disk, and returns the first write error since the last Flush.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for (len(s.queue) > 0 || s.writing > 0) && !s.closed {
		s.cond.Wait()
	}
	err := s.ioErr
	s.ioErr = nil
	return err
}

// Compact requests a compaction pass and blocks until it completes:
// live records are rewritten into a fresh segment, dead and stale
// records are dropped, and superseded segment files are removed.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("cachestore: store is closed")
	}
	done := s.st.Compactions + 1
	s.compact = true
	s.cond.Broadcast()
	for s.st.Compactions < done && !s.closed {
		s.cond.Wait()
	}
	err := s.ioErr
	s.ioErr = nil
	return err
}

// Close drains the write-behind queue, fsyncs, stops the flusher, and
// closes every file handle.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.flusherDone
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFiles()
	return s.ioErr
}

// closeFiles closes all handles. Caller holds s.mu (or is Open failing
// before the flusher starts).
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// Stats returns a consistent snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Pending = len(s.queue)
	return st
}

// flusher is the single goroutine that performs file writes: it drains
// the write-behind queue in batches (one fsync per batch) and runs
// compaction passes when requested or triggered.
func (s *Store) flusher() {
	defer close(s.flusherDone)
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.compact && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && !s.compact && s.closed {
			s.mu.Unlock()
			return
		}
		if s.compact {
			s.compact = false
			s.mu.Unlock()
			s.runCompaction()
			continue
		}
		batch := s.queue
		s.queue = nil
		s.writing = len(batch)
		s.mu.Unlock()

		s.writeBatch(batch)

		s.mu.Lock()
		s.writing = 0
		if s.shouldCompactLocked() {
			s.compact = true
		}
		closed := s.closed && len(s.queue) == 0 && !s.compact
		s.cond.Broadcast()
		s.mu.Unlock()
		if closed {
			return
		}
	}
}

// shouldCompactLocked applies the background-compaction trigger.
func (s *Store) shouldCompactLocked() bool {
	return s.st.DeadBytes >= s.opts.compactMinBytes &&
		float64(s.st.DeadBytes) >= s.opts.compactFraction*float64(s.st.Bytes)
}

// writeBatch appends a batch of queued records to the active segment
// and fsyncs once. Only the flusher calls it.
func (s *Store) writeBatch(batch []queued) {
	start := time.Now()
	defer func() { s.opts.Metrics.flushSeconds.Observe(time.Since(start).Seconds()) }()
	s.mu.Lock()
	seg := s.segs[s.active]
	s.mu.Unlock()
	if seg.size >= s.opts.segmentBytes {
		next, err := s.createSegment()
		if err != nil {
			s.mu.Lock()
			s.failBatchLocked(batch, err)
			s.mu.Unlock()
			return
		}
		seg = next
	}

	var buf []byte
	locs := make([]recordLoc, len(batch))
	from := seg.size
	for i, q := range batch {
		n := len(buf)
		buf = appendRecord(buf, s.opts.KeyVersion, q.key, q.value)
		locs[i] = recordLoc{seg: seg.id, off: from + int64(n), len: int64(len(buf) - n)}
	}
	err := s.write(seg, buf, true)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Bytes += seg.size - from
	if err != nil {
		s.st.DeadBytes += seg.size - from
		s.failBatchLocked(batch, err)
		return
	}
	s.st.Flushes++
	for i, q := range batch {
		if old, ok := s.index[q.key]; ok {
			s.st.DeadBytes += old.len
			s.st.Records--
		}
		s.index[q.key] = locs[i]
		s.st.Records++
		s.st.Appends++
		// Drop the pending entry only if a newer Put has not replaced it.
		if cur, ok := s.pending[q.key]; ok && bytes.Equal(cur, q.value) {
			delete(s.pending, q.key)
		}
	}
}

// write appends buf to seg and, with sync, fsyncs it: the one step by
// which a batch, and a compaction's copy, reach the disk. It advances
// seg.size past whatever reached the file, so the bytes of a failed
// write stay behind as dead bytes, never under the next append. Only
// the flusher calls it.
func (s *Store) write(seg *segment, buf []byte, sync bool) error {
	n, err := seg.f.WriteAt(buf, seg.size)
	seg.size += int64(n)
	if err != nil || !sync || s.opts.noSync {
		return err
	}
	return seg.f.Sync()
}

// failBatchLocked records a write failure: the batch is dropped (a
// lost cache write is recomputed, never wrong). Caller holds s.mu.
func (s *Store) failBatchLocked(batch []queued, err error) {
	s.ioErr = err
	s.st.Dropped += uint64(len(batch))
	for _, q := range batch {
		if cur, ok := s.pending[q.key]; ok && bytes.Equal(cur, q.value) {
			delete(s.pending, q.key)
		}
	}
	s.logf("cachestore: dropping batch of %d records: %v", len(batch), err)
}

// runCompaction copies the live records into a new segment, the active
// one from then on, and removes the older segments once the copy is
// durable. Only the flusher calls it, so no append can race the copy;
// Gets proceed against the old segments and switch to the copies when
// the index is swapped. A failed pass moves no index entry; what it
// wrote stays as dead bytes, copies a restart may replay.
func (s *Store) runCompaction() {
	s.mu.Lock()
	oldSegs := maps.Clone(s.segs)
	type liveRec struct {
		key string
		loc recordLoc
	}
	live := make([]liveRec, 0, len(s.index))
	for k, loc := range s.index {
		live = append(live, liveRec{key: k, loc: loc})
	}
	// Copy in (segment, offset) order: append order is preserved, and
	// sequential reads stay sequential.
	sort.Slice(live, func(i, j int) bool {
		if live[i].loc.seg != live[j].loc.seg {
			return live[i].loc.seg < live[j].loc.seg
		}
		return live[i].loc.off < live[j].loc.off
	})
	oldBytes := s.st.Bytes
	s.mu.Unlock()

	// copyLive reads the live records straight into one chunk buffer,
	// writes each full chunk to seg, and syncs with the last.
	newLocs := make(map[string]recordLoc, len(live))
	copyLive := func(seg *segment) error {
		chunk := make([]byte, 0, 1<<16)
		for _, lr := range live {
			n := int(lr.loc.len)
			if len(chunk) > 0 && len(chunk)+n > cap(chunk) {
				if err := s.write(seg, chunk, false); err != nil {
					return err
				}
				chunk = chunk[:0]
			}
			chunk = slices.Grow(chunk, n)
			rec := chunk[len(chunk) : len(chunk)+n]
			if _, err := oldSegs[lr.loc.seg].f.ReadAt(rec, lr.loc.off); err != nil {
				return err
			}
			if _, err := decodeValidRecord(rec); err != nil {
				// Bit rot found during compaction: drop the record rather
				// than carry a corrupt copy forward. The index swap below
				// removes the key, as it has no copy in newLocs — a stale
				// entry would point into a segment that no longer exists.
				s.mu.Lock()
				s.st.CorruptRecords++
				s.mu.Unlock()
				s.logf("cachestore: compaction dropping corrupt record for %s: %v", lr.key, err)
				continue
			}
			newLocs[lr.key] = recordLoc{seg: seg.id, off: seg.size + int64(len(chunk)), len: lr.loc.len}
			chunk = chunk[:len(chunk)+n]
		}
		return s.write(seg, chunk, true)
	}
	seg, err := s.createSegment()
	if err == nil {
		err = copyLive(seg)
	}
	if err == nil && s.opts.afterCompactCopy != nil {
		s.opts.afterCompactCopy()
	}

	s.mu.Lock()
	s.st.Compactions++ // a failed pass still unblocks Compact waiters
	s.cond.Broadcast()
	if err != nil {
		if seg != nil {
			s.st.Bytes += seg.size
			s.st.DeadBytes += seg.size
		}
		s.ioErr = err
		s.mu.Unlock()
		s.logf("cachestore: compaction failed: %v", err)
		return
	}
	s.segs = map[int]*segment{seg.id: seg}
	var dead int64
	for _, lr := range live {
		loc, copied := newLocs[lr.key]
		if cur, ok := s.index[lr.key]; !ok || cur != lr.loc {
			// Dropped by a read while the copy ran: the copy is dead
			// weight, and reinstalling it would resurrect the key.
			if copied {
				dead += loc.len
			}
			continue
		}
		if !copied {
			delete(s.index, lr.key) // corrupt: not carried forward
			continue
		}
		s.index[lr.key] = loc
	}
	s.st.Records = len(s.index)
	s.st.Segments = 1
	s.st.Bytes = seg.size
	s.st.DeadBytes = dead
	s.st.ReclaimedBytes += oldBytes - seg.size
	// Close the superseded handles now that no index entry points at
	// them — holding them open would leak one fd per compaction and
	// pin the unlinked segments' disk blocks. A Get that captured an
	// old handle before the swap gets ErrClosed and retries through
	// the fresh index.
	for _, old := range oldSegs {
		os.Remove(old.path)
		old.f.Close()
	}
	s.mu.Unlock()
	s.opts.Metrics.compactionRuns.Inc()
	s.logf("cachestore: compacted %d segments (%d bytes) into %s (%d bytes, %d records)",
		len(oldSegs), oldBytes, segName(seg.id), seg.size, len(newLocs))
}
