package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics/testutil"
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

// baselineNDJSON is the canonical stream of a never-interrupted,
// unjournaled run of crashSpec.
func baselineNDJSON(t *testing.T) string {
	t.Helper()
	return canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{}), crashSpec))
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
	baseline := baselineNDJSON(t)
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
	_, err = runSweep(ctx, eng, opts, spec, j, func(sweep.CellResult) {
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

// TestJournalWritesOnlyCellsAndDone: a journaled sweep appends exactly the
// records replay reads back — one cell record per grid cell and one done
// record, nothing else — on the local pool and when a coordinator fans
// the grid out to a worker.
func TestJournalWritesOnlyCellsAndDone(t *testing.T) {
	const want = `
		# HELP pp_journal_appends_total Journal records appended, by record type.
		# TYPE pp_journal_appends_total counter
		pp_journal_appends_total{type="cell"} 12
		pp_journal_appends_total{type="done"} 1
	`
	for _, m := range []sweepMode{
		{name: "local+journal", workers: -1, journal: true},
		{name: "coordinator/1+journal", workers: 1, journal: true},
	} {
		t.Run(m.name, func(t *testing.T) {
			opts := modeOptions(t, m, 2)
			sweepBody(t, NewHandler(engine.New(), opts), crashSpec)
			if err := testutil.CollectAndCompare(opts.Journal.Metrics().Appends, strings.NewReader(want)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// walFrame frames one journal record payload the way the WAL stores it:
// uint32 LE length, uint32 LE CRC32-IEEE, payload.
func walFrame(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestLegacyWALResumes: a WAL left by an interrupted sweep of an earlier
// release, which also journaled a start record and the dispatched ranges,
// still resumes through POST /v1/sweep. Replay skips the start and range
// records, re-emits exactly the journaled cells, and the resumed canonical
// stream is byte-identical to an uninterrupted run's.
func TestLegacyWALResumes(t *testing.T) {
	const k = 5
	raw := sweepBody(t, NewHandler(engine.New(), Options{}), crashSpec)
	baseline := canonicalNDJSON(t, raw)
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}

	wal := walFrame([]byte(`{"type":"start","spec":"` + hash + `","total":12}`))
	wal = append(wal, walFrame([]byte(`{"type":"range","worker":"local","cells":[{"from":0,"to":11}]}`))...)
	dec := json.NewDecoder(bytes.NewReader(raw))
	for i := 0; i < k; i++ {
		var row sweep.StreamRow
		if err := dec.Decode(&row); err != nil || row.Type != "cell" {
			t.Fatalf("row %d: %v %+v", i, err, row)
		}
		payload, err := json.Marshal(map[string]any{"type": "cell", "cell": row.Cell})
		if err != nil {
			t.Fatal(err)
		}
		wal = append(wal, walFrame(payload)...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hash+".wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := canonicalNDJSON(t, sweepBody(t, NewHandler(engine.New(), Options{Journal: js}), crashSpec))
	if got := testutil.ToFloat64(js.Metrics().ReplayedCells); got != k {
		t.Fatalf("resume replayed %v cells, want %d", got, k)
	}
	if got := testutil.ToFloat64(js.Metrics().Truncations); got != 0 {
		t.Fatalf("legacy WAL replayed dirty: %v truncations", got)
	}
	if resumed != baseline {
		t.Fatalf("resumed canonical stream differs from baseline:\n--- baseline ---\n%s--- resumed ---\n%s", baseline, resumed)
	}
}
