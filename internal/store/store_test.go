package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
	"github.com/cwru-db/fgs/internal/submod"
)

// testImage builds a small deterministic graph plus a synthetic maintainer
// checkpoint — enough structure to make snapshot round-trips meaningful
// without dragging the whole engine into the store's unit tests (the server
// e2e covers the real thing).
func testImage(t testing.TB) (*graph.Graph, *core.MaintainerState) {
	t.Helper()
	g := graph.New()
	for i := 0; i < 8; i++ {
		attrs := map[string]string{"exp": "3"}
		if i%2 == 0 {
			attrs["gender"] = "m"
		}
		g.AddNode("user", attrs)
	}
	for i := 0; i < 8; i++ {
		if err := g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%8), "recommend"); err != nil {
			t.Fatal(err)
		}
	}
	ms := &core.MaintainerState{
		Selector: &submod.StreamerState{
			Selected: []graph.NodeID{2, 4},
			Weights:  []float64{3.5, 1.25},
			Buckets:  [][]graph.NodeID{{2}, {4}},
		},
		Patterns: []core.PatternState{{
			Pattern:      "n 0 user\nf 0\n",
			Covered:      []graph.NodeID{2, 4},
			CoveredEdges: []graph.EdgeRef{{From: 2, To: 3, Label: 0}},
			CP:           1,
		}},
		Candidates: 7,
		Windows:    3,
	}
	return g, ms
}

// graphBytes renders a graph in FGSB form for byte-level comparison.
func graphBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openStore opens a store in dir, failing the test on error.
func openStore(t testing.TB, opts Options) (*Store, *Recovered) {
	t.Helper()
	st, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, rec
}

// seedStore opens a fresh store in a temp dir, seals the test image as
// snapshot 0, and appends records 1..n. Returns the dir and the closed
// store's inputs for later comparison.
func seedStore(t testing.TB, opts Options, n int) (string, *graph.Graph, *core.MaintainerState, []Record) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	g, ms := testImage(t)
	st, rec := openStore(t, opts)
	if !rec.Fresh {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	if err := st.WriteSnapshot(0, g, ms); err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 0, n)
	for i := 1; i <= n; i++ {
		r := Record{Epoch: uint64(i), Delta: core.Delta{Insert: []core.EdgeUpdate{{
			From: graph.NodeID(i % 8), To: graph.NodeID((i + 3) % 8), Label: "corev",
		}}}}
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return opts.Dir, g, ms, recs
}

// sameTail compares recovered records to the appended ones by re-encoding,
// which sidesteps nil-vs-empty slice noise.
func sameTail(t testing.TB, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("tail has %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(appendRecord(nil, got[i]), appendRecord(nil, want[i])) {
			t.Fatalf("tail record %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestRecoverSnapshotAndTail is the core recovery contract: open, snapshot,
// append, close, reopen — the second open must return the identical graph
// bytes, the identical checkpoint, and the full tail in epoch order.
func TestRecoverSnapshotAndTail(t *testing.T) {
	for _, policy := range []string{FsyncBatch, FsyncOff} {
		t.Run(policy, func(t *testing.T) {
			dir, g, ms, recs := seedStore(t, Options{Fsync: policy}, 5)
			st, rec := openStore(t, Options{Dir: dir, Fsync: policy})
			defer st.Close() //lint:allow errdrop (test teardown)
			if rec.Fresh || rec.Truncated {
				t.Fatalf("recovered fresh=%v truncated=%v", rec.Fresh, rec.Truncated)
			}
			if rec.SnapshotEpoch != 0 || rec.Epoch != 5 {
				t.Fatalf("recovered epochs snapshot=%d final=%d", rec.SnapshotEpoch, rec.Epoch)
			}
			if !bytes.Equal(graphBytes(t, rec.Graph), graphBytes(t, g)) {
				t.Fatal("recovered graph differs from the snapshotted one")
			}
			if !reflect.DeepEqual(rec.State, ms) {
				t.Fatalf("recovered checkpoint differs:\n got %+v\nwant %+v", rec.State, ms)
			}
			sameTail(t, rec.Tail, recs)
		})
	}
}

// TestReopenedSegmentAccepts: after recovery the last segment keeps
// accepting appends, and a third open sees the extended tail.
func TestReopenedSegmentAccepts(t *testing.T) {
	dir, _, _, recs := seedStore(t, Options{Fsync: FsyncOff}, 3)
	st, rec := openStore(t, Options{Dir: dir, Fsync: FsyncOff})
	if rec.Epoch != 3 {
		t.Fatalf("recovered epoch %d", rec.Epoch)
	}
	next := Record{Epoch: 4, Delta: core.Delta{Insert: []core.EdgeUpdate{{From: 0, To: 5, Label: "corev"}}}}
	if err := st.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec2 := openStore(t, Options{Dir: dir})
	defer st2.Close() //lint:allow errdrop (test teardown)
	sameTail(t, rec2.Tail, append(recs, next))
	if rec2.Segments != 1 {
		t.Fatalf("reopened append split into %d segments", rec2.Segments)
	}
}

// TestTornFinalRecordTruncated simulates a crash mid-append by stapling a
// partial record to the last segment: recovery must keep every intact
// record, cut the file back to the boundary, and report the truncation.
func TestTornFinalRecordTruncated(t *testing.T) {
	dir, _, _, recs := seedStore(t, Options{Fsync: FsyncOff}, 4)
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	torn := appendRecord(nil, Record{Epoch: 5, Delta: core.Delta{Insert: []core.EdgeUpdate{{From: 1, To: 2, Label: "corev"}}}})
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, rec := openStore(t, Options{Dir: dir})
	defer st.Close() //lint:allow errdrop (test teardown)
	if !rec.Truncated {
		t.Fatal("torn record not reported")
	}
	if rec.Epoch != 4 {
		t.Fatalf("recovered epoch %d, want 4 (torn record must not replay)", rec.Epoch)
	}
	sameTail(t, rec.Tail, recs)
	if fi2, err := os.Stat(last); err != nil || fi2.Size() != fi.Size() {
		t.Fatalf("segment not cut back: %d bytes, want %d (%v)", fi2.Size(), fi.Size(), err)
	}
}

// TestCorruptNonFinalSegmentFails: a torn record is only a crash signature
// in the final segment — anywhere earlier it is corruption, and recovery
// must refuse rather than truncate data away.
func TestCorruptNonFinalSegmentFails(t *testing.T) {
	// A tiny segment cap puts each record in its own segment.
	dir, _, _, _ := seedStore(t, Options{Fsync: FsyncOff, SegmentBytes: 32}, 4)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, have %d", len(segs))
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+2] ^= 0xff // inside the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open accepted a mid-stream corrupt WAL")
	}
}

// TestSnapshotCorruptionRejected flips a byte of the live snapshot: the
// checksum must fail the open before any parsing happens.
func TestSnapshotCorruptionRejected(t *testing.T) {
	dir, _, _, _ := seedStore(t, Options{Fsync: FsyncOff}, 2)
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots: %v %v", snaps, err)
	}
	path := filepath.Join(dir, snaps[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open accepted a corrupt snapshot")
	}
}

// TestLostManifestRefusesFreshStart: WAL segments without a manifest mean a
// damaged directory, not an empty one; silently starting fresh would drop
// the data.
func TestLostManifestRefusesFreshStart(t *testing.T) {
	dir, _, _, _ := seedStore(t, Options{Fsync: FsyncOff}, 2)
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open treated a manifest-less directory with state as fresh")
	}
}

// TestSnapshotAdvanceGC: committing a snapshot at a later epoch must retire
// the older snapshot, start a fresh segment on the next append, and collect
// fully covered segments at the following commit — leaving a directory a
// new open can recover with an empty tail.
func TestSnapshotAdvanceGC(t *testing.T) {
	dir, g, ms, _ := seedStore(t, Options{Fsync: FsyncOff}, 4)
	st, rec := openStore(t, Options{Dir: dir, Fsync: FsyncOff})
	if err := st.WriteSnapshot(rec.Epoch, g, ms); err != nil {
		t.Fatal(err)
	}
	if st.SnapshotEpoch() != 4 {
		t.Fatalf("snapshot epoch %d after commit", st.SnapshotEpoch())
	}
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("old snapshot not collected: %v (%v)", snaps, err)
	}
	// The next append rolls into a segment named for epoch 5; the commit
	// after it can then prove the old segment covered and delete it.
	if err := st.Append(Record{Epoch: 5, Delta: core.Delta{Insert: []core.EdgeUpdate{{From: 2, To: 6, Label: "corev"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(5, g, ms); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("covered segments not collected: %v (%v)", segs, err)
	}
	if e, _ := parseSegmentName(segs[0]); e != 5 {
		t.Fatalf("surviving segment %q, want the epoch-5 one", segs[0])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2 := openStore(t, Options{Dir: dir})
	defer st2.Close() //lint:allow errdrop (test teardown)
	if rec2.SnapshotEpoch != 5 || rec2.Epoch != 5 || len(rec2.Tail) != 0 {
		t.Fatalf("post-gc recovery: snapshot=%d epoch=%d tail=%d", rec2.SnapshotEpoch, rec2.Epoch, len(rec2.Tail))
	}
}

// TestSegmentRoll: a tiny segment cap forces a roll per append; recovery
// must stitch the multi-segment tail back together in order.
func TestSegmentRoll(t *testing.T) {
	dir, _, _, recs := seedStore(t, Options{Fsync: FsyncOff, SegmentBytes: 32}, 6)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("tiny cap produced only %d segments", len(segs))
	}
	st, rec := openStore(t, Options{Dir: dir, SegmentBytes: 32})
	defer st.Close() //lint:allow errdrop (test teardown)
	sameTail(t, rec.Tail, recs)
	if rec.Segments != len(segs) {
		t.Fatalf("recovered segment count %d, want %d", rec.Segments, len(segs))
	}
}

// TestOneSnapshotInFlight: a second BeginSnapshot while one is open must be
// refused; Abort releases the slot and leaves no tmp litter.
func TestOneSnapshotInFlight(t *testing.T) {
	dir := t.TempDir()
	g, ms := testImage(t)
	st, _ := openStore(t, Options{Dir: dir, Fsync: FsyncOff})
	defer st.Close() //lint:allow errdrop (test teardown)
	sn, err := st.BeginSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.BeginSnapshot(0); err == nil {
		t.Fatal("second in-flight snapshot accepted")
	}
	sn.Abort()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) == ".tmp" {
			t.Fatalf("aborted snapshot left %s", ent.Name())
		}
	}
	if err := st.WriteSnapshot(0, g, ms); err != nil {
		t.Fatalf("snapshot after abort: %v", err)
	}
}

// TestSweepTmp: leftover tmp files from a crash mid-snapshot are removed at
// open and do not confuse recovery.
func TestSweepTmp(t *testing.T) {
	dir, _, _, _ := seedStore(t, Options{Fsync: FsyncOff}, 2)
	junk := filepath.Join(dir, snapshotName(9)+".tmp")
	if err := os.WriteFile(junk, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec := openStore(t, Options{Dir: dir})
	defer st.Close() //lint:allow errdrop (test teardown)
	if rec.Epoch != 2 {
		t.Fatalf("recovered epoch %d", rec.Epoch)
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatalf("tmp file survived open: %v", err)
	}
}

// TestEpochGapFails: a hole in the record stream (lost segment, reordered
// restore) must fail recovery loudly instead of replaying around it.
func TestEpochGapFails(t *testing.T) {
	dir := t.TempDir()
	g, ms := testImage(t)
	st, _ := openStore(t, Options{Dir: dir, Fsync: FsyncOff})
	if err := st.WriteSnapshot(0, g, ms); err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{1, 3} { // skip 2
		if err := st.Append(Record{Epoch: e, Delta: core.Delta{Insert: []core.EdgeUpdate{{From: 0, To: 1, Label: "x"}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open replayed across an epoch gap")
	}
}

// TestBadFsyncPolicy pins the options validation. "group" is refused like
// any unknown policy: there is no group commit.
func TestBadFsyncPolicy(t *testing.T) {
	for _, policy := range []string{"yolo", "group"} {
		if _, _, err := Open(Options{Dir: t.TempDir(), Fsync: policy}); err == nil {
			t.Fatalf("unknown fsync policy %q accepted", policy)
		}
	}
	if _, _, err := Open(Options{}); err == nil {
		t.Fatal("empty data dir accepted")
	}
}

// TestObsMetrics: the exported instruments reflect activity — appends,
// snapshot count, and the live epoch gauge.
func TestObsMetrics(t *testing.T) {
	dir, g, ms, _ := seedStore(t, Options{Fsync: FsyncOff}, 3)
	st, _ := openStore(t, Options{Dir: dir, Fsync: FsyncOff})
	defer st.Close() //lint:allow errdrop (test teardown)
	if err := st.WriteSnapshot(3, g, ms); err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, m := range st.ObsMetrics() {
		vals[m.Name] = m.Value
	}
	if vals["fgs_store_snapshot_epoch"] != 3 {
		t.Fatalf("snapshot epoch gauge %v", vals["fgs_store_snapshot_epoch"])
	}
	if vals["fgs_store_snapshots_total"] != 1 {
		t.Fatalf("snapshot counter %v", vals["fgs_store_snapshots_total"])
	}
	if vals["fgs_store_recovery_replayed_records"] != 3 {
		t.Fatalf("replay gauge %v", vals["fgs_store_recovery_replayed_records"])
	}
}

// metricValues reads the store's exported instruments by name.
func metricValues(st *Store) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range st.ObsMetrics() {
		vals[m.Name] = m.Value
	}
	return vals
}

// storeGoroutines returns the stacks of the live goroutines, other than the
// caller, that run fgstore code.
func storeGoroutines() []string {
	buf := make([]byte, 1<<20)
	var out []string
	for i, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if i > 0 && strings.Contains(g, "/internal/store.") { // the caller's stack comes first
			out = append(out, g)
		}
	}
	return out
}

// TestOpenStartsNoGoroutine: appends sync inline, so an open store with the
// default options runs no goroutine of its own.
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := storeGoroutines()
	st, _ := openStore(t, Options{Dir: t.TempDir()})
	defer st.Close() //lint:allow errdrop (test teardown)
	if during := storeGoroutines(); len(during) > len(before) {
		t.Fatalf("open store runs %d goroutines, %d before Open:\n%s",
			len(during), len(before), strings.Join(during, "\n\n"))
	}
}

// TestDefaultAppendSyncs: under the default policy every Append returns
// with its record synced — one fsync per append, none deferred.
func TestDefaultAppendSyncs(t *testing.T) {
	st, _ := openStore(t, Options{Dir: t.TempDir()})
	defer st.Close() //lint:allow errdrop (test teardown)
	for i := 1; i <= 4; i++ {
		if err := st.Append(benchRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
		vals := metricValues(st)
		if vals["fgs_store_wal_appends_total"] != float64(i) || vals["fgs_store_wal_fsyncs_total"] != float64(i) {
			t.Fatalf("after append %d: %v appends, %v fsyncs", i,
				vals["fgs_store_wal_appends_total"], vals["fgs_store_wal_fsyncs_total"])
		}
	}
}

// TestOffRollSyncs: FsyncOff skips the per-append sync, but each roll still
// seals the segment it closes — an unsynced rolled segment could be torn by
// a crash, and recovery refuses a torn non-final segment.
func TestOffRollSyncs(t *testing.T) {
	st, _ := openStore(t, Options{Dir: t.TempDir(), Fsync: FsyncOff, SegmentBytes: 32})
	defer st.Close() //lint:allow errdrop (test teardown)
	for i := 1; i <= 4; i++ {
		if err := st.Append(benchRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	vals := metricValues(st)
	rolls := vals["fgs_store_wal_segments"] - 1
	if rolls < 1 {
		t.Fatalf("32-byte cap left %v segments; the test needs a roll", vals["fgs_store_wal_segments"])
	}
	if vals["fgs_store_wal_fsyncs_total"] != rolls {
		t.Fatalf("%v rolls under FsyncOff made %v fsyncs, want one per roll", rolls, vals["fgs_store_wal_fsyncs_total"])
	}
}
