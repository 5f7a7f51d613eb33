// Package store is fgstore, fgsd's durability subsystem (DESIGN.md §15): a
// segmented write-ahead log of applied update batches, periodic checksummed
// snapshots of the engine (FGSB graph + maintainer checkpoint), and a
// manifest tying the two together so recovery is "load latest snapshot,
// replay the WAL tail".
//
// The contract is determinism end to end: every logged record is a batch
// the Maintainer actually applied, replay goes through the same
// Maintainer.Apply path, and the snapshot checkpoints the maintainer's full
// decision state — so a recovered daemon's epoch counter, stats, and
// canonical summary bytes are identical to the pre-crash ones. The store
// itself is mechanism only; the serving engine decides what to log and when
// to snapshot.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/obs"
)

// Fsync policies for Options.Fsync. There is no group commit: the engine
// appends under its write lock, one record at a time, so a flush window could
// only delay the one record it covers.
const (
	// FsyncBatch (the default) syncs inside every Append: a positive reply
	// means the batch is on disk.
	FsyncBatch = "batch"
	// FsyncOff never syncs on the append path (the OS flushes eventually;
	// Close and segment rolls still sync). A crash can lose the most recent
	// acknowledged batches. Fastest; for bulk loads and benchmarks.
	FsyncOff = "off"
)

// manifestName is the manifest file inside the data directory.
const manifestName = "MANIFEST"

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if missing.
	Dir string
	// Fsync is the WAL durability policy: FsyncBatch (default) or FsyncOff.
	Fsync string
	// SegmentBytes caps a WAL segment before it rolls (default 64 MiB).
	SegmentBytes int64
	// Log receives boot/recovery lines; nil discards.
	Log *slog.Logger
	// Clock is the sanctioned timing source for fsync/snapshot metrics;
	// nil uses the system clock.
	Clock obs.Clock
}

func (o Options) withDefaults() (Options, error) {
	switch o.Fsync {
	case "":
		o.Fsync = FsyncBatch
	case FsyncBatch, FsyncOff:
	default:
		return o, fmt.Errorf("store: unknown fsync policy %q (have %q, %q)", o.Fsync, FsyncBatch, FsyncOff)
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Clock == nil {
		o.Clock = obs.System()
	}
	return o, nil
}

// Recovered is what Open found in the data directory. A fresh directory has
// Fresh true and a nil Graph: the caller builds its initial state from its
// own inputs and seals it with WriteSnapshot before the first Append.
// Otherwise Graph/State are the snapshot image and Tail the WAL records
// past it, in epoch order; the caller replays Tail through the same apply
// path that produced it.
type Recovered struct {
	// Fresh reports an empty data directory (no manifest).
	Fresh bool
	// SnapshotEpoch is the epoch of the loaded snapshot.
	SnapshotEpoch uint64
	// Epoch is the final epoch after the tail: SnapshotEpoch + len(Tail).
	Epoch uint64
	// Graph is the snapshot's graph image (nil when Fresh).
	Graph *graph.Graph
	// State is the snapshot's maintainer checkpoint (nil when Fresh).
	State *core.MaintainerState
	// Tail holds the WAL records with epochs past the snapshot.
	Tail []Record
	// TailBytes is the encoded size of Tail.
	TailBytes int64
	// Truncated reports that the final record was torn (crash mid-append)
	// and the last segment was cut back to the preceding record boundary.
	Truncated bool
	// Segments is the number of WAL segment files on disk.
	Segments int
}

// Store is an open fgstore data directory. Append and BeginSnapshot are
// safe for concurrent use (one snapshot in flight at a time); Close is
// final. Open → Close is a checked lifecycle pair (fgslint pairdiscipline).
type Store struct {
	dir   string
	opts  Options
	wal   *wal
	log   *slog.Logger
	clock obs.Clock

	// snapEpoch is the live snapshot's epoch (the manifest's watermark).
	snapEpoch atomic.Uint64
	// snapInFlight serializes snapshots: writing two concurrently would
	// race on the manifest.
	snapInFlight atomic.Bool

	snapshots   obs.Counter
	snapshotUs  obs.Histogram
	replayRecs  obs.Gauge
	replayBytes obs.Gauge
	truncations obs.Counter
}

// Open opens (creating if needed) a data directory, verifies and loads the
// latest snapshot, and scans the WAL tail. It returns the store ready for
// appends plus what it recovered; the caller replays Recovered.Tail before
// serving. A torn final record — the signature of a crash mid-append — is
// truncated away and reported, never replayed; torn or corrupt data
// anywhere else fails Open.
func Open(opts Options) (*Store, *Recovered, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if opts.Dir == "" {
		return nil, nil, errors.New("store: no data directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	sweepTmp(opts.Dir)

	s := &Store{dir: opts.Dir, opts: opts, log: opts.Log, clock: opts.Clock}
	rec, err := s.recover()
	if err != nil {
		return nil, nil, err
	}
	s.wal = &wal{dir: opts.Dir, policy: opts.Fsync, segBytes: opts.SegmentBytes, clock: opts.Clock}
	s.wal.segments.Set(int64(rec.Segments))
	s.replayRecs.Set(int64(len(rec.Tail)))
	s.replayBytes.Set(rec.TailBytes)
	if rec.Truncated {
		s.truncations.Inc()
	}

	if err := s.resumeTail(); err != nil {
		s.wal.close() //lint:allow errdrop (open is failing; the close error is secondary)
		return nil, nil, err
	}
	return s, rec, nil
}

// resumeTail resumes appending into the last segment so restarts do not
// shed tiny segments; a torn tail was already cut back to a record boundary.
func (s *Store) resumeTail() error {
	segs, err := listSegments(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(segs) == 0 {
		return nil
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(filepath.Join(s.dir, last))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() < s.opts.SegmentBytes {
		if err := s.wal.reopen(last, fi.Size()); err != nil {
			return fmt.Errorf("store: reopen WAL segment: %w", err)
		}
	}
	return nil
}

// recover reads the manifest, snapshot, and WAL tail.
func (s *Store) recover() (*Recovered, error) {
	manifest, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		// Fresh directory — but only if it really is: state without a
		// manifest means a lost manifest, and silently starting empty would
		// discard the data.
		snaps, serr := listSnapshots(s.dir)
		segs, gerr := listSegments(s.dir)
		if serr != nil || gerr != nil {
			return nil, fmt.Errorf("store: scan %s: %w", s.dir, errors.Join(serr, gerr))
		}
		if len(snaps) > 0 || len(segs) > 0 {
			return nil, fmt.Errorf("store: %s has %d snapshots and %d WAL segments but no manifest", s.dir, len(snaps), len(segs))
		}
		return &Recovered{Fresh: true}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	snapFile, err := parseManifest(manifest)
	if err != nil {
		return nil, err
	}
	epoch, g, ms, err := readSnapshot(filepath.Join(s.dir, snapFile))
	if err != nil {
		return nil, err
	}
	if nameEpoch, _ := parseSnapshotName(snapFile); nameEpoch != epoch {
		return nil, fmt.Errorf("store: snapshot %s carries epoch %d", snapFile, epoch)
	}
	s.snapEpoch.Store(epoch)

	rec := &Recovered{SnapshotEpoch: epoch, Epoch: epoch, Graph: g, State: ms}
	if err := s.replayTail(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// replayTail scans every WAL segment, collecting the records past the
// snapshot into rec.Tail. Applied batches advance the epoch by exactly one,
// so the tail must be gapless from SnapshotEpoch+1; any discontinuity means
// a lost or reordered segment and fails recovery loudly rather than
// recovering to a silently different state.
func (s *Store) replayTail(rec *Recovered) error {
	segs, err := listSegments(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	rec.Segments = len(segs)
	for i, name := range segs {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if len(data) < len(walMagic) || !bytes.Equal(data[:len(walMagic)], walMagic) {
			return fmt.Errorf("store: %s: not a WAL segment", name)
		}
		body := data[len(walMagic):]
		good, err := decodeRecords(body, func(r Record) error {
			if r.Epoch <= rec.SnapshotEpoch {
				return nil // already in the snapshot; truncation just hasn't caught up
			}
			if want := rec.Epoch + 1; r.Epoch != want {
				return fmt.Errorf("store: %s: epoch %d, want %d (gap in the log)", name, r.Epoch, want)
			}
			rec.Epoch = r.Epoch
			rec.Tail = append(rec.Tail, r)
			return nil
		})
		if err == nil {
			rec.TailBytes += good
			continue
		}
		if !errors.Is(err, errTornRecord) {
			return err // discontinuity or reader error: corrupt, not torn
		}
		if i != len(segs)-1 {
			return fmt.Errorf("store: %s: %w (not the final segment)", name, err)
		}
		// Torn final record: the crash signature. Cut the segment back to
		// the last intact record and carry on.
		rec.TailBytes += good
		rec.Truncated = true
		keep := int64(len(walMagic)) + good
		s.log.Warn("wal torn record truncated", "segment", name, "keep_bytes", keep, "drop_bytes", int64(len(data))-keep)
		if err := os.Truncate(path, keep); err != nil {
			return fmt.Errorf("store: truncate %s: %w", name, err)
		}
		if err := fsyncFile(path); err != nil {
			return fmt.Errorf("store: sync truncated %s: %w", name, err)
		}
	}
	return nil
}

// Append logs one applied batch. It returns once the record is durable per
// the configured fsync policy. An error means the log can no longer accept
// writes (sticky): the caller must neither acknowledge nor publish the
// batch, and BeginSnapshot refuses from then on.
func (s *Store) Append(rec Record) error {
	return s.wal.append(appendRecord(nil, rec), rec.Epoch)
}

// BeginSnapshot starts writing the snapshot at the given epoch. The caller
// streams the body (WriteGraph, WriteState) and must finish with exactly
// one of Commit or Abort. One snapshot may be in flight at a time. Once an
// append has failed, or the log is closed, it refuses: the caller's state
// may hold a batch the log never took, and no snapshot may seal it.
func (s *Store) BeginSnapshot(epoch uint64) (*Snapshot, error) {
	if err := s.wal.usable(); err != nil {
		return nil, fmt.Errorf("store: begin snapshot: %w", err)
	}
	if !s.snapInFlight.CompareAndSwap(false, true) {
		return nil, errors.New("store: snapshot already in flight")
	}
	path := filepath.Join(s.dir, snapshotName(epoch)+".tmp")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.snapInFlight.Store(false)
		return nil, fmt.Errorf("store: begin snapshot: %w", err)
	}
	sn := newSnapshot(s, epoch, f, path)
	// The magic stays outside the checksum; the epoch opens the body.
	if _, err := sn.bw.Write(snapMagic); err != nil {
		sn.Abort()
		return nil, fmt.Errorf("store: begin snapshot: %w", err)
	}
	if _, err := sn.cw.Write(binary.AppendUvarint(nil, epoch)); err != nil {
		sn.Abort()
		return nil, fmt.Errorf("store: begin snapshot: %w", err)
	}
	return sn, nil
}

// WriteSnapshot writes and commits a full snapshot in one call.
func (s *Store) WriteSnapshot(epoch uint64, g *graph.Graph, ms *core.MaintainerState) error {
	sn, err := s.BeginSnapshot(epoch)
	if err != nil {
		return err
	}
	sn.WriteGraph(g)
	sn.WriteState(ms)
	return sn.Commit()
}

// publishSnapshot (called by Snapshot.Commit) makes the freshly renamed
// snapshot the live one: manifest swap, then garbage collection of
// superseded snapshots and fully covered WAL segments.
func (s *Store) publishSnapshot(epoch uint64) error {
	if err := s.writeManifest(snapshotName(epoch)); err != nil {
		return err
	}
	s.snapEpoch.Store(epoch)
	s.snapshots.Inc()
	// Roll on the next append so the log's active segment starts after the
	// snapshot watermark and the pre-snapshot segments become collectable
	// at the next commit.
	s.wal.mu.Lock()
	s.wal.rollNext = true
	s.wal.mu.Unlock()
	s.collectGarbage(epoch)
	return nil
}

// collectGarbage removes snapshots older than the live one and WAL segments
// every record of which is at or below the live snapshot's epoch. A segment
// is provably covered when a successor segment exists whose first record is
// at most epoch+1: segment names are first-record epochs, so everything in
// the predecessor is ≤ epoch. Deletion failures are logged, not fatal —
// the files are garbage, not state.
func (s *Store) collectGarbage(epoch uint64) {
	snaps, err := listSnapshots(s.dir)
	if err != nil {
		s.log.Warn("snapshot gc scan failed", "err", err)
		return
	}
	removed := false
	for _, name := range snaps {
		if e, _ := parseSnapshotName(name); e < epoch {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				s.log.Warn("snapshot gc failed", "file", name, "err", err)
			} else {
				removed = true
			}
		}
	}
	segs, err := listSegments(s.dir)
	if err != nil {
		s.log.Warn("wal gc scan failed", "err", err)
		return
	}
	for i := 0; i+1 < len(segs); i++ {
		next, _ := parseSegmentName(segs[i+1])
		if next > epoch+1 {
			break
		}
		if err := os.Remove(filepath.Join(s.dir, segs[i])); err != nil {
			s.log.Warn("wal gc failed", "file", segs[i], "err", err)
		} else {
			removed = true
			s.wal.segments.Set(s.wal.segments.Load() - 1)
		}
	}
	if removed {
		if err := syncDir(s.dir); err != nil {
			s.log.Warn("wal gc dir sync failed", "err", err)
		}
	}
}

// writeManifest atomically replaces the manifest.
func (s *Store) writeManifest(snapFile string) error {
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	body := fmt.Sprintf("fgstore 1\nsnapshot %s\n", snapFile)
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := fsyncFile(tmp); err != nil {
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: rename manifest: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: sync manifest dir: %w", err)
	}
	return nil
}

// parseManifest extracts the live snapshot file name.
func parseManifest(data []byte) (string, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 || lines[0] != "fgstore 1" {
		return "", fmt.Errorf("store: malformed manifest (header %q)", firstLine(data))
	}
	name, ok := strings.CutPrefix(lines[1], "snapshot ")
	if !ok {
		return "", fmt.Errorf("store: malformed manifest (line %q)", lines[1])
	}
	if _, ok := parseSnapshotName(name); !ok {
		return "", fmt.Errorf("store: manifest names invalid snapshot %q", name)
	}
	return name, nil
}

func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return string(data[:i])
	}
	return string(data)
}

// SnapshotEpoch returns the live snapshot's epoch (the manifest watermark).
func (s *Store) SnapshotEpoch() uint64 { return s.snapEpoch.Load() }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Close seals the WAL (final sync) and releases the store. It does not
// snapshot; callers wanting a snapshot-on-drain take one first.
func (s *Store) Close() error { return s.wal.close() }

// ObsMetrics exports the store's instruments (obs.Source).
func (s *Store) ObsMetrics() []obs.Metric {
	fsync := s.wal.fsyncUs.Snapshot()
	snap := s.snapshotUs.Snapshot()
	return []obs.Metric{
		{Name: "fgs_store_wal_appends_total", Help: "WAL records appended.", Kind: obs.KindCounter, Value: float64(s.wal.appends.Load())},
		{Name: "fgs_store_wal_bytes_total", Help: "WAL bytes appended.", Kind: obs.KindCounter, Value: float64(s.wal.bytes.Load())},
		{Name: "fgs_store_wal_fsyncs_total", Help: "WAL fsync calls.", Kind: obs.KindCounter, Value: float64(s.wal.fsyncs.Load())},
		{Name: "fgs_store_wal_fsync_us", Help: "WAL fsync latency (µs).", Kind: obs.KindHistogram, Hist: &fsync},
		{Name: "fgs_store_wal_segments", Help: "WAL segment files on disk.", Kind: obs.KindGauge, Value: float64(s.wal.segments.Load())},
		{Name: "fgs_store_snapshots_total", Help: "Snapshots committed since open.", Kind: obs.KindCounter, Value: float64(s.snapshots.Load())},
		{Name: "fgs_store_snapshot_us", Help: "Snapshot write+commit latency (µs).", Kind: obs.KindHistogram, Hist: &snap},
		{Name: "fgs_store_snapshot_epoch", Help: "Epoch of the live snapshot.", Kind: obs.KindGauge, Value: float64(s.snapEpoch.Load())},
		{Name: "fgs_store_recovery_replayed_records", Help: "WAL records replayed at the last open.", Kind: obs.KindGauge, Value: float64(s.replayRecs.Load())},
		{Name: "fgs_store_recovery_replayed_bytes", Help: "WAL bytes replayed at the last open.", Kind: obs.KindGauge, Value: float64(s.replayBytes.Load())},
		{Name: "fgs_store_recovery_truncations_total", Help: "Torn WAL records truncated at open.", Kind: obs.KindCounter, Value: float64(s.truncations.Load())},
	}
}

// sweepTmp removes leftover *.tmp files from a crash mid-snapshot or
// mid-manifest-swap; the rename never happened, so they are garbage.
func sweepTmp(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".tmp") && !ent.IsDir() {
			os.Remove(filepath.Join(dir, ent.Name())) //lint:allow errdrop (best-effort sweep)
		}
	}
}

// fsyncFile opens and syncs one file by path.
func fsyncFile(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close() //lint:allow errdrop (sync result is what matters)
	return f.Sync()
}
