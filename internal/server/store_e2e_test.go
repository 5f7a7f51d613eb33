package server

import (
	"github.com/cwru-db/fgs/internal/leakcheck"

	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/cwru-db/fgs/internal/store"
)

// newDurableServer boots a server over the data directory, resuming from
// whatever the store recovered — the same dance cmd/fgsd does, with fgsd's
// default fsync policy. That policy makes every acknowledged batch durable
// before the ack, so "crash" in these tests is simply: close without a
// final snapshot.
func newDurableServer(t testing.TB, dir string, snapEvery int, cfg Config) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, rec, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	g, groups := testGraph(t)
	if !rec.Fresh {
		g = rec.Graph
	}
	cfg.Store, cfg.Resume, cfg.SnapshotEvery = st, rec, snapEvery
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	s, err := New(g, groups, cfg)
	if err != nil {
		st.Close() //lint:allow errdrop (boot is failing; the close error is secondary)
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts, st
}

// durableUpdates returns n distinct epoch-advancing update bodies: inserts
// of edges that do not exist in the test graph, each applying cleanly.
func durableUpdates(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`{"insert":[{"from":%d,"to":%d,"label":"wal"}]}`, i%24, (i+9)%24)
	}
	return out
}

// durableStats is the subset of /v1/stats that survives a crash: engine
// state, not session counters (cache hits and admission tallies restart at
// zero with the process).
type durableStats struct {
	Epoch   uint64
	Nodes   int
	Edges   int
	Groups  int
	Summary SummaryStats
}

func fetchState(t testing.TB, ts *httptest.Server) (durableStats, map[string][]byte) {
	t.Helper()
	resp, body := get(t, ts, "/v1/stats")
	wantStatus(t, resp, body, 200)
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	reads := map[string][]byte{}
	for name, req := range map[string][2]string{
		"summarize4": {"/v1/summarize", `{"n":4}`},
		"summarize6": {"/v1/summarize", `{"n":6}`},
		"topk":       {"/v1/summarize-k", `{"k":2,"n":5}`},
		"view":       {"/v1/view", "{\"pattern\":\"n 0 user\\nf 0\"}"},
	} {
		resp, body := post(t, ts, req[0], req[1])
		wantStatus(t, resp, body, 200)
		reads[name] = body
	}
	return durableStats{Epoch: st.Epoch, Nodes: st.Nodes, Edges: st.Edges, Groups: st.Groups, Summary: st.Summary}, reads
}

// TestStoreCrashRecoveryByteIdentical is the acceptance test of fgstore
// (ISSUE: durability): apply a stream of updates, kill the daemon without a
// drain snapshot, boot a new one over the same directory, and require the
// recovered epoch, durable stats, and every canonical read body to be
// byte-identical — then keep applying updates and require the recovered
// engine to stay in lockstep with a never-crashed reference.
func TestStoreCrashRecoveryByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("durability e2e skipped in -short")
	}
	dir := t.TempDir()
	updates := durableUpdates(7)

	_, ts1, st1 := newDurableServer(t, dir, 100, Config{})
	for i, u := range updates {
		resp, body := post(t, ts1, "/v1/update", u)
		wantStatus(t, resp, body, 200)
		if i == 3 { // interleave a read so the cache sees traffic pre-crash
			post(t, ts1, "/v1/summarize", `{"n":4}`)
		}
	}
	before, readsBefore := fetchState(t, ts1)
	if before.Epoch != uint64(len(updates)) {
		t.Fatalf("pre-crash epoch %d, want %d", before.Epoch, len(updates))
	}
	// Crash: no drain, no FinalSnapshot. Every acked batch is on disk
	// (FsyncBatch); the only snapshot is the boot-time epoch-0 image, so
	// recovery must replay the entire tail.
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2, st2 := newDurableServer(t, dir, 100, Config{})
	if s2.Epoch() != before.Epoch {
		t.Fatalf("recovered epoch %d, want %d", s2.Epoch(), before.Epoch)
	}
	after, readsAfter := fetchState(t, ts2)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("durable stats diverge:\n got %+v\nwant %+v", after, before)
	}
	for name := range readsBefore {
		if !bytes.Equal(readsAfter[name], readsBefore[name]) {
			t.Errorf("%s body diverges after recovery:\n got %s\nwant %s", name, readsAfter[name], readsBefore[name])
		}
	}

	// Lockstep continuation: a reference engine that saw all updates in one
	// uninterrupted life must agree with the recovered one byte for byte.
	more := []string{
		`{"insert":[{"from":2,"to":17,"label":"wal2"}]}`,
		`{"delete":[{"from":0,"to":9,"label":"wal"}]}`,
		`{"insert":[{"from":5,"to":20,"label":"wal2"},{"from":20,"to":5,"label":"wal2"}]}`,
	}
	_, tsRef := newTestServer(t, Config{Workers: 4})
	for _, u := range append(append([]string{}, updates...), more...) {
		resp, body := post(t, tsRef, "/v1/update", u)
		wantStatus(t, resp, body, 200)
	}
	for _, u := range more {
		resp, body := post(t, ts2, "/v1/update", u)
		wantStatus(t, resp, body, 200)
	}
	gotStats, gotReads := fetchState(t, ts2)
	wantStats, wantReads := fetchState(t, tsRef)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("post-recovery stats diverge from reference:\n got %+v\nwant %+v", gotStats, wantStats)
	}
	for name := range wantReads {
		if !bytes.Equal(gotReads[name], wantReads[name]) {
			t.Errorf("%s body diverges from never-crashed reference:\n got %s\nwant %s", name, gotReads[name], wantReads[name])
		}
	}
	ts2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornWriteRecovery staples a partial record to the WAL — the disk
// image of a crash mid-append, before the ack — and requires recovery to
// truncate it away and come back at the last acknowledged epoch with
// byte-identical reads.
func TestStoreTornWriteRecovery(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	_, ts1, st1 := newDurableServer(t, dir, 100, Config{})
	for _, u := range durableUpdates(4) {
		resp, body := post(t, ts1, "/v1/update", u)
		wantStatus(t, resp, body, 200)
	}
	before, readsBefore := fetchState(t, ts1)
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%v)", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible length prefix followed by too few payload bytes.
	if _, err := f.Write([]byte{0x40, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, rec, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("torn record not reported")
	}
	if rec.Epoch != before.Epoch {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch, before.Epoch)
	}
	_, groups := testGraph(t)
	s2, err := New(rec.Graph, groups, Config{Workers: 4, Store: st, Resume: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	after, readsAfter := fetchState(t, ts2)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("durable stats diverge after torn-write recovery:\n got %+v\nwant %+v", after, before)
	}
	for name := range readsBefore {
		if !bytes.Equal(readsAfter[name], readsBefore[name]) {
			t.Errorf("%s body diverges after torn-write recovery", name)
		}
	}
	ts2.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRecoverTwiceDeterministic boots two servers from the same data
// directory in sequence and fires the identical request script at both:
// the full response transcripts — session counters included — must match
// byte for byte, the recovery-flavored version of the e2e determinism
// guarantee.
func TestStoreRecoverTwiceDeterministic(t *testing.T) {
	leakcheck.Check(t)
	if testing.Short() {
		t.Skip("durability e2e skipped in -short")
	}
	dir := t.TempDir()
	_, ts0, st0 := newDurableServer(t, dir, 100, Config{})
	for _, u := range durableUpdates(5) {
		resp, body := post(t, ts0, "/v1/update", u)
		wantStatus(t, resp, body, 200)
	}
	ts0.Close()
	if err := st0.Close(); err != nil {
		t.Fatal(err)
	}

	script := []struct{ path, body string }{
		{"/v1/summarize", `{"n":4}`},
		{"/v1/stats", ``},
		{"/v1/summarize", `{"n":4}`}, // cache hit the second time — in both lives
		{"/v1/view", "{\"pattern\":\"n 0 user\\nf 0\"}"},
		{"/v1/update", `{"insert":[{"from":3,"to":15,"label":"wal2"}]}`},
		{"/v1/stats", ``},
		{"/v1/summarize-k", `{"k":2,"n":5}`},
	}
	run := func() [][]byte {
		// Each life replays from the same snapshot + tail, then serves the
		// same script; the update leaves the directory ahead by one epoch,
		// so reset it by removing the trailing segment growth — instead,
		// copy: run against a scratch copy of the directory.
		scratch := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(scratch, ent.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, ts, st := newDurableServer(t, scratch, 100, Config{})
		defer st.Close() //lint:allow errdrop (test teardown)
		defer ts.Close()
		out := make([][]byte, len(script))
		for i, req := range script {
			var status int
			var body []byte
			if req.path == "/v1/stats" {
				r, b := get(t, ts, req.path)
				status, body = r.StatusCode, b
			} else {
				r, b := post(t, ts, req.path, req.body)
				status, body = r.StatusCode, b
			}
			if status != 200 {
				t.Fatalf("script %d %s: status %d (%s)", i, req.path, status, body)
			}
			out[i] = body
		}
		return out
	}
	run1 := run()
	run2 := run()
	for i := range run1 {
		if !bytes.Equal(run1[i], run2[i]) {
			t.Errorf("script %d (%s %s): recovered lives diverge:\n  %s\n  %s",
				i, script[i].path, script[i].body, run1[i], run2[i])
		}
	}
}

// TestStoreSnapshotCadenceAndDrain: with SnapshotEvery=2 the engine
// snapshots as it goes (mvcc mode: off the write path), FinalSnapshot seals
// the current epoch at drain, and the next boot replays an empty tail.
func TestStoreSnapshotCadenceAndDrain(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s1, ts1, st1 := newDurableServer(t, dir, 2, Config{})
	for _, u := range durableUpdates(5) {
		resp, body := post(t, ts1, "/v1/update", u)
		wantStatus(t, resp, body, 200)
	}
	before, readsBefore := fetchState(t, ts1)
	// Drain order per cmd/fgsd: stop traffic, snapshot, close.
	s1.StartDrain()
	ts1.Close()
	if err := s1.FinalSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := st1.SnapshotEpoch(); got != before.Epoch {
		t.Fatalf("drain snapshot at epoch %d, want %d", got, before.Epoch)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != 0 || rec.SnapshotEpoch != before.Epoch {
		t.Fatalf("post-drain recovery: snapshot=%d tail=%d, want snapshot=%d tail=0",
			rec.SnapshotEpoch, len(rec.Tail), before.Epoch)
	}
	_, groups := testGraph(t)
	s2, err := New(rec.Graph, groups, Config{Workers: 4, Store: st2, Resume: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	after, readsAfter := fetchState(t, ts2)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("durable stats diverge across drain/restart:\n got %+v\nwant %+v", after, before)
	}
	for name := range readsBefore {
		if !bytes.Equal(readsAfter[name], readsBefore[name]) {
			t.Errorf("%s body diverges across drain/restart", name)
		}
	}
	ts2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreFailedAppendNotPublished: a batch the WAL refuses is answered
// 500 and never becomes visible — not to readers, not to a drain snapshot,
// not to the next boot — so a failed write cannot surface later as a
// silently different answer.
func TestStoreFailedAppendNotPublished(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	s1, ts1, st1 := newDurableServer(t, dir, 100, Config{})
	for _, u := range durableUpdates(2) {
		resp, body := post(t, ts1, "/v1/update", u)
		wantStatus(t, resp, body, 200)
	}
	before, readsBefore := fetchState(t, ts1)
	if before.Epoch != 2 {
		t.Fatalf("epoch %d after two updates, want 2", before.Epoch)
	}
	// A closed WAL refuses every append, as a failed one does.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts1, "/v1/update", `{"insert":[{"from":4,"to":19,"label":"lost"}]}`)
	wantStatus(t, resp, body, 500)
	if got, _ := fetchState(t, ts1); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused batch published:\n got %+v\nwant %+v", got, before)
	}
	s1.StartDrain()
	ts1.Close()
	if err := s1.FinalSnapshot(); err == nil {
		t.Fatal("drain snapshot sealed state holding a batch the WAL refused")
	}

	_, ts2, st2 := newDurableServer(t, dir, 100, Config{})
	defer st2.Close() //lint:allow errdrop (test teardown)
	defer ts2.Close()
	after, readsAfter := fetchState(t, ts2)
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("recovery diverges from the last acknowledged state:\n got %+v\nwant %+v", after, before)
	}
	for name := range readsBefore {
		if !bytes.Equal(readsAfter[name], readsBefore[name]) {
			t.Errorf("%s body diverges after recovery:\n got %s\nwant %s", name, readsAfter[name], readsBefore[name])
		}
	}
}
