package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics/testutil"
	"repro/internal/store"
	"repro/internal/sweep"
)

// crashSpec is the resume test grid: deterministic analyses plus a
// seed-driven simulation axis, so byte-equality is a real claim about
// seed stability across the crash boundary, not just about static
// verdicts.
const crashSpec = `{
  "name": "crashtest",
  "protocols": [{"spec": "flock:{N}"}],
  "params": [{"from": 3, "to": 8}],
  "kinds": ["stable", "simulate"],
  "sizes": ["{N}+1"],
  "options": {"seed": 42}
}`

// canonicalNDJSON re-encodes a sweep stream with every volatile field
// zeroed — the byte-comparable form of a run.
func canonicalNDJSON(t *testing.T, body []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	for {
		var row sweep.StreamRow
		err := dec.Decode(&row)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding stream: %v", err)
		}
		switch row.Type {
		case "cell":
			c := sweep.CanonicalCell(*row.Cell)
			row.Cell = &c
		case "summary":
			row.Summary = sweep.CanonicalResult(row.Summary)
		default:
			t.Fatalf("stream error row: %s", row.Error)
		}
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
	}
	return out.String()
}

func sweepBody(t *testing.T, h http.Handler, spec string) []byte {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJournaledSweepCrashResumeByteIdentical is the acceptance criterion
// of the durable journal: a sweep aborted mid-flight (the in-process
// stand-in for SIGKILL — the client connection drops, cancelling the run
// with the journal partially filled) and resubmitted against a fresh
// engine over the same journal directory produces a canonical NDJSON
// stream byte-identical to a never-interrupted run's. Retention passes
// race both phases: an aggressive Compact between crash and resume must
// leave the in-progress WAL untouched, and a Compact after completion
// stubs the WAL so a further resubmission re-executes the grid — still
// byte-identically.
func TestJournaledSweepCrashResumeByteIdentical(t *testing.T) {
	baseline := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{}), crashSpec))
	if n := strings.Count(baseline, "\n"); n != 13 { // 12 cells + summary
		t.Fatalf("baseline has %d rows, want 13", n)
	}

	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(engine.New(), Options{Journal: js}))
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	// Read a few rows, then kill the connection mid-sweep. Closing the
	// body cancels the request context; srv.Close waits for the handler to
	// unwind, so the journal file is released before the restart.
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 4; i++ {
		var row sweep.StreamRow
		if err := dec.Decode(&row); err != nil {
			t.Fatalf("reading row %d: %v", i, err)
		}
	}
	resp.Body.Close()
	srv.Close()

	// The dropped connection races the final cells, so the WAL may or may
	// not carry its done record. When the crash truly landed mid-flight,
	// run maximum-aggression retention against it: no done record, so
	// neither age nor size budget may touch it and replay must survive
	// intact. (The done outcome is exercised by the stub-and-reexecute
	// phase at the end of this test.)
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	wasDone := probe.Done()
	probe.Close()
	if !wasDone {
		if stats, err := js.Compact(journal.Retention{Retain: time.Nanosecond, MaxBytes: 1}); err != nil {
			t.Fatal(err)
		} else if stats.Compacted != 0 || stats.Removed != 0 {
			t.Fatalf("compaction touched an in-progress WAL: %+v", stats)
		}
	}

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{Journal: js2}), crashSpec))
	if replayed := testutil.ToFloat64(js2.Metrics().ReplayedCells); replayed < 4 {
		t.Fatalf("resume replayed %v cells, want >= 4", replayed)
	}
	if resumed != baseline {
		t.Fatalf("resumed canonical stream differs from baseline:\n--- baseline ---\n%s--- resumed ---\n%s", baseline, resumed)
	}

	// Now the sweep is done: compaction stubs its WAL, and resubmitting the
	// compacted spec re-executes the whole grid to the same bytes.
	stats, err := js2.Compact(journal.Retention{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 1 {
		t.Fatalf("post-completion compaction stats = %+v, want 1 stub", stats)
	}
	js3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	recomputed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js3}), crashSpec))
	if recomputed != baseline {
		t.Fatalf("post-compaction rerun differs from baseline:\n--- baseline ---\n%s--- rerun ---\n%s", baseline, recomputed)
	}
	if eng.Computations() == 0 {
		t.Fatal("post-compaction rerun executed nothing; the stub should have forced recomputation")
	}
}

// TestJournaledSweepSkipsInterruptedCell: a cell cancelled mid-run is not
// journaled — it has no outcome yet — so a resume recomputes it instead of
// replaying "context canceled" as its final result. The cancel fires only
// once the never-converging second cell holds the engine's execution slot,
// so the interruption is deterministic.
func TestJournaledSweepSkipsInterruptedCell(t *testing.T) {
	spinner := json.RawMessage(`{
	  "name": "never-converges",
	  "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
	  "transitions": [["a","a","b","b"], ["b","b","a","a"]],
	  "inputs": {"x": "a"},
	  "completeWithIdentity": true
	}`)
	spec := sweep.Spec{
		Name:      "interrupt",
		Protocols: []sweep.ProtocolAxis{{Spec: "flock:3"}, {Inline: spinner, Label: "spinner"}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Sizes:     []sweep.Expr{sweep.Lit(10)},
		Options:   sweep.Options{MaxSteps: 2_000_000_000},
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstDone := make(chan struct{})
	go func() {
		<-firstDone
		for {
			if busy, _, _ := eng.SlotStats(); busy > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	opts := Options{SweepWorkers: 1, RequestLog: slog.New(slog.DiscardHandler)}
	streamed := 0
	_, err = runSweepJournaled(ctx, eng, opts, spec, j, func(sweep.CellResult) {
		if streamed++; streamed == 1 {
			close(firstDone)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.Completed()
	if streamed != 1 || len(got) != 1 || got[0].Index != 0 || !got[0].OK {
		t.Fatalf("streamed %d cells, journaled %+v; want only the completed cell 0", streamed, got)
	}
}

// TestJournaledSweepFullyReplayed: resubmitting a completed sweep executes
// nothing — the whole stream (and its summary) comes off the journal.
func TestJournaledSweepFullyReplayed(t *testing.T) {
	dir := t.TempDir()
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	baseline := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{Journal: js}), crashSpec))

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	replayed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js2}), crashSpec))
	if replayed != baseline {
		t.Fatal("fully-replayed stream differs from the original")
	}
	if got := eng.Computations(); got != 0 {
		t.Fatalf("full replay still ran %d computations", got)
	}
}

// TestJournaledSweepConflict: the same spec submitted twice concurrently
// answers 409 on the second, instead of interleaving one journal file.
func TestJournaledSweepConflict(t *testing.T) {
	js, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(engine.New(), Options{Journal: js})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Hold the spec's journal open, as an in-flight run of it would.
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	held, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	dup, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Body.Close()
	if dup.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate in-flight sweep got status %d, want 409", dup.StatusCode)
	}
}

// TestArtifactEndpoint pins the peer-fetch wire format: a served artifact
// round-trips the CRC frame and decodes into the payload ArtifactBytes
// returns; unknown kinds and absent hashes are 404.
func TestArtifactEndpoint(t *testing.T) {
	eng := engine.New()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(st)
	h := NewHandler(eng, Options{})
	_, res := post(t, h, "/v1/analyze", `{"kind":"stable","protocol":{"spec":"binary:5"}}`)
	hash := res.Protocol.Hash

	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/artifacts/stable/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := store.Decode(raw)
	if err != nil {
		t.Fatalf("served artifact frame invalid: %v", err)
	}
	want, ok := eng.ArtifactBytes("stable", hash)
	if !ok {
		t.Fatal("ArtifactBytes: engine has no stable artifact")
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("served artifact differs from the engine's encoding")
	}

	for _, path := range []string{
		"/v1/artifacts/stable/deadbeef",
		"/v1/artifacts/nosuchkind/" + hash,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
