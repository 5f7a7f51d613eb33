package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	fgs "github.com/cwru-db/fgs"
	"github.com/cwru-db/fgs/datasets"
)

// TestDriveSeededMultiset checks the driver's reproducibility promise: the
// same (seed, clients) pair sends the same request multiset, traceparents
// included, however the goroutines interleave.
func TestDriveSeededMultiset(t *testing.T) {
	run := func(seed int64) []string {
		var mu sync.Mutex
		var sent []string
		record := func(rq request, traceparent string) (int, http.Header, error) {
			mu.Lock()
			defer mu.Unlock()
			sent = append(sent, fmt.Sprint(rq, traceparent))
			return http.StatusOK, nil, nil
		}
		if _, err := drive(record, driveConfig{Clients: 4, Requests: 203, Seed: seed, Mix: loadMix}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(sent)
		return sent
	}
	a, b := run(7), run(7)
	if len(a) != 203 {
		t.Fatalf("sent %d requests, want 203", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs with seed 7 and 4 clients sent different request multisets")
	}
	if reflect.DeepEqual(a, run(8)) {
		t.Fatal("seeds 7 and 8 sent the same request multiset")
	}
}

// TestTransportsAgree runs one seeded client through each transport
// against identical engines: the in-process handler and an HTTP server must
// see the same requests and answer them the same way. The -load mix runs
// on a 200-node contact graph rather than the LKI schema it was written
// for (its view patterns then match nothing) because summaries there cost
// a tenth as much, which keeps the run short under -race.
func TestTransportsAgree(t *testing.T) {
	newHandler := func() http.Handler {
		g := datasets.Pandemic(42, 200)
		groups, err := datasets.GroupsByAttr(g, "citizen", "agegroup", []string{"young", "senior"}, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := fgs.NewServer(g, groups, fgs.ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}
	counts := func(rep *report) []string {
		var out []string
		for _, e := range rep.Endpoints {
			out = append(out, fmt.Sprintf("%s: %d requests, %d 2xx, %d 4xx, %d 5xx, %d net, %d hits",
				e.Endpoint, e.Requests, e.OK, e.ClientErr, e.ServerErr, e.NetErr, e.CacheHits))
		}
		return out
	}
	cfg := driveConfig{Clients: 1, Requests: 20, Seed: 3, Mix: loadMix}

	inproc, err := drive(handlerTransport(newHandler()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler())
	defer ts.Close()
	remote, err := drive(httpTransport(ts.Client(), ts.URL), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := counts(inproc), counts(remote)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("transports disagree:\nin-process: %q\nhttp:       %q", a, b)
	}
	var hits, clientErrs, timed int
	for _, e := range inproc.Endpoints {
		hits += e.CacheHits
		clientErrs += e.ClientErr
		timed += e.Timed
	}
	if len(a) < 5 || hits == 0 || clientErrs == 0 || timed != cfg.Requests {
		t.Fatalf("mix too thin to compare: %q, %d of %d timed", a, timed, cfg.Requests)
	}
}

// TestLoadRefusesUnservingTarget: a target whose /healthz does not answer
// 200 (a draining fgsd answers 503) gets no load and no report.
func TestLoadRefusesUnservingTarget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			t.Errorf("request to %s after the health probe", r.URL.Path)
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := runLoad(&out, ts.URL, driveConfig{Clients: 1, Requests: 4, Mix: loadMix})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("runLoad against a 503 target: err = %v, want a not-serving error", err)
	}
	if out.Len() > 0 {
		t.Fatalf("runLoad printed a report for a target that is not serving:\n%s", out.String())
	}
}

// TestScaleCeilingBreach: a run whose peak heap exceeds the ceiling fails.
func TestScaleCeilingBreach(t *testing.T) {
	err := runScale(io.Discard, scaleConfig{
		Nodes:        3000,
		Seed:         1,
		GroupSpec:    "user:city:c0,c1:1:4",
		Duration:     100 * time.Millisecond,
		Readers:      2,
		Writers:      1,
		WriteBatch:   8,
		MemCeilingMB: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds ceiling 1 MB") {
		t.Fatalf("runScale with a 1 MB ceiling: err = %v, want the ceiling error", err)
	}
}
