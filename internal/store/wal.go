package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// The write-ahead log: segmented files of length-prefixed records, one per
// applied graph-changing update batch. Framing follows the FGSB conventions
// (uvarints, length-prefixed strings) with a CRC32C trailer per record:
//
//	segment  = magic "FGSW\x01" record*
//	record   = uvarint(len(payload)) payload crc32c(payload)·4 LE
//	payload  = uvarint(epoch)
//	           uvarint(nInsert) edge*   uvarint(nDelete) edge*
//	edge     = uvarint(from) uvarint(to) uvarint(len(label)) label
//
// Segments are named wal-%016x.seg by the epoch of their first record, so a
// lexicographic directory listing is also the epoch order and recovery can
// bound each segment's contents by its successor's name.

// walMagic heads every WAL segment file.
var walMagic = []byte{'F', 'G', 'S', 'W', 0x01}

// castagnoli is the CRC32C table used for record and snapshot checksums
// (same polynomial as iSCSI/ext4; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one durable unit: the delta of an applied /v1/update batch and
// the epoch the batch advanced the graph to. Batches that change nothing
// (applied == 0) are never logged — they do not advance the epoch and
// replaying them is a no-op by construction.
type Record struct {
	Epoch uint64
	Delta core.Delta
}

// maxWALLabel bounds one edge label's length, mirroring the FGSB codec's
// string cap, so a corrupt length cannot drive a huge allocation before the
// CRC gets a chance to reject the record.
const maxWALLabel = 1 << 20

// appendRecord appends the framed record to buf and returns it.
func appendRecord(buf []byte, rec Record) []byte {
	payload := appendPayload(nil, rec)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

func appendPayload(buf []byte, rec Record) []byte {
	buf = binary.AppendUvarint(buf, rec.Epoch)
	buf = appendEdges(buf, rec.Delta.Insert)
	return appendEdges(buf, rec.Delta.Delete)
}

func appendEdges(buf []byte, edges []core.EdgeUpdate) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
		buf = binary.AppendUvarint(buf, uint64(len(e.Label)))
		buf = append(buf, e.Label...)
	}
	return buf
}

// errTornRecord reports a record that cannot be decoded: short length
// prefix, payload shorter than declared, checksum mismatch, or malformed
// payload. In the final segment this is the expected signature of a crash
// mid-append and recovery truncates it away; anywhere else it is corruption.
var errTornRecord = errors.New("store: torn or corrupt WAL record")

// decodeRecords walks the record stream in data (magic already stripped),
// invoking fn for each intact record. It returns the offset just past the
// last intact record; err is nil when the stream ends cleanly at a record
// boundary, errTornRecord-wrapped when trailing bytes do not form one, and
// fn's error (halting the walk) otherwise.
func decodeRecords(data []byte, fn func(Record) error) (int64, error) {
	off := int64(0)
	for int64(len(data)) > off {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			return off, fmt.Errorf("%w at offset %d: %v", errTornRecord, off, err)
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += int64(n)
	}
	return off, nil
}

// decodeRecord decodes one framed record from the front of data, returning
// the bytes consumed. Every length is bounds-checked against the remaining
// input before use; the function never panics on arbitrary data (fuzzed by
// FuzzWALDecode).
func decodeRecord(data []byte) (Record, int, error) {
	plen, n := binary.Uvarint(data)
	if n <= 0 {
		return Record{}, 0, errors.New("short length prefix")
	}
	if plen > uint64(len(data)-n) || uint64(len(data)-n)-plen < 4 {
		return Record{}, 0, errors.New("payload extends past end of data")
	}
	payload := data[n : n+int(plen)]
	want := binary.LittleEndian.Uint32(data[n+int(plen):])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return Record{}, 0, fmt.Errorf("checksum mismatch (got %08x want %08x)", got, want)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n + int(plen) + 4, nil
}

func decodePayload(payload []byte) (Record, error) {
	var rec Record
	var err error
	rec.Epoch, payload, err = getUv(payload, "epoch")
	if err != nil {
		return rec, err
	}
	rec.Delta.Insert, payload, err = getEdges(payload, "insert")
	if err != nil {
		return rec, err
	}
	rec.Delta.Delete, payload, err = getEdges(payload, "delete")
	if err != nil {
		return rec, err
	}
	if len(payload) != 0 {
		return rec, fmt.Errorf("%d trailing payload bytes", len(payload))
	}
	return rec, nil
}

func getUv(data []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("short %s", what)
	}
	return v, data[n:], nil
}

func getEdges(data []byte, what string) ([]core.EdgeUpdate, []byte, error) {
	count, data, err := getUv(data, what+" count")
	if err != nil {
		return nil, nil, err
	}
	// Each edge takes at least 3 bytes, so an honest count is bounded by the
	// remaining payload; reject before allocating.
	if count > uint64(len(data))/3 {
		return nil, nil, fmt.Errorf("%s count %d exceeds payload", what, count)
	}
	edges := make([]core.EdgeUpdate, 0, count)
	for i := uint64(0); i < count; i++ {
		var from, to, llen uint64
		if from, data, err = getUv(data, what+" from"); err != nil {
			return nil, nil, err
		}
		if to, data, err = getUv(data, what+" to"); err != nil {
			return nil, nil, err
		}
		if llen, data, err = getUv(data, what+" label length"); err != nil {
			return nil, nil, err
		}
		if llen > maxWALLabel || llen > uint64(len(data)) {
			return nil, nil, fmt.Errorf("%s label length %d out of range", what, llen)
		}
		edges = append(edges, core.EdgeUpdate{
			From:  graph.NodeID(from),
			To:    graph.NodeID(to),
			Label: string(data[:llen]),
		})
		data = data[llen:]
	}
	return edges, data, nil
}

// --- segment files -------------------------------------------------------

// segmentName renders the file name of the segment whose first record is at
// epoch e.
func segmentName(e uint64) string { return fmt.Sprintf("wal-%016x.seg", e) }

// parseSegmentName extracts the first-record epoch from a segment name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	e, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// listSegments returns the WAL segment file names in dir in epoch order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range ents {
		if _, ok := parseSegmentName(ent.Name()); ok && !ent.IsDir() {
			out = append(out, ent.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// --- the appender --------------------------------------------------------

// wal is the append side of the log: one active segment file, a sticky
// error, and the fsync policy. All fields behind mu.
type wal struct {
	dir      string
	policy   string
	segBytes int64
	clock    obs.Clock

	mu   sync.Mutex
	f    *os.File // active segment; nil until the first append
	size int64    // bytes written to the active segment
	err  error    // sticky: first write/sync failure; the log is dead after
	// rollNext forces the next append into a fresh segment regardless of
	// size — set after a snapshot commit so the pre-snapshot segment becomes
	// collectable at the next commit.
	rollNext bool
	closed   bool

	// Instruments (read by Store.ObsMetrics).
	appends  obs.Counter
	bytes    obs.Counter
	fsyncs   obs.Counter
	fsyncUs  obs.Histogram
	segments obs.Gauge
}

// reopen resumes appending to an existing segment (recovery found it intact
// or truncated it back to a record boundary).
func (w *wal) reopen(name string, size int64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.f, w.size = f, size
	w.mu.Unlock()
	return nil
}

// usable reports why the log accepts no more records — its sticky error, or
// that it is closed — or nil while it still does.
func (w *wal) usable() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.usableLocked()
}

func (w *wal) usableLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("store: WAL is closed")
	}
	return nil
}

// append writes one encoded record and, under FsyncBatch, syncs it before
// returning. firstE names the segment if this append opens one.
func (w *wal) append(encoded []byte, firstE uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usableLocked(); err != nil {
		return err
	}
	if w.f == nil || w.rollNext || (w.size+int64(len(encoded)) > w.segBytes && w.size > int64(len(walMagic))) {
		if err := w.rollLocked(firstE); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(encoded); err != nil {
		w.fail(err)
		return w.err
	}
	w.size += int64(len(encoded))
	w.appends.Inc()
	w.bytes.Add(int64(len(encoded)))
	if w.policy == FsyncBatch {
		w.syncLocked()
	}
	return w.err
}

// rollLocked closes the active segment (after syncing it, whatever the
// policy — an unsynced rolled segment could be torn by a crash, and a torn
// non-final segment fails recovery) and opens a fresh one whose first
// record will be at epoch firstE.
func (w *wal) rollLocked(firstE uint64) error {
	if w.f != nil {
		w.syncLocked()
		if err := w.f.Close(); err != nil && w.err == nil {
			w.fail(err)
		}
		w.f = nil
		if w.err != nil {
			return w.err
		}
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(firstE)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		w.fail(err)
		return w.err
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close() //lint:allow errdrop (the write error is the one that matters)
		w.fail(err)
		return w.err
	}
	w.f, w.size, w.rollNext = f, int64(len(walMagic)), false
	w.segments.Set(w.segments.Load() + 1)
	return nil
}

// syncLocked fsyncs the active segment under mu: per append under
// FsyncBatch, and to seal a segment on roll and close.
func (w *wal) syncLocked() {
	if w.f == nil || w.err != nil {
		return
	}
	start := w.clock.Now()
	err := w.f.Sync()
	w.fsyncs.Inc()
	w.fsyncUs.Observe(w.clock.Now().Sub(start).Microseconds())
	if err != nil {
		w.fail(err)
	}
}

// fail records the sticky error. Callers hold mu.
func (w *wal) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("store: WAL failed: %w", err)
	}
}

// close seals the log: syncs (unless already failed) and closes the
// segment.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.f != nil {
		w.syncLocked()
		if err := w.f.Close(); err != nil && w.err == nil {
			w.fail(err)
		}
		w.f = nil
	}
	return w.err
}
