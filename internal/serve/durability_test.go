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
	var out []byte
	sum, err := sweep.ReadRows(bytes.NewReader(body), func(cr sweep.CellResult) {
		c := sweep.CanonicalCell(cr)
		out = sweep.AppendRow(out, sweep.StreamRow{Type: "cell", Cell: &c})
	})
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if sum != nil {
		out = sweep.AppendRow(out, sweep.StreamRow{Type: "summary", Summary: sweep.CanonicalResult(sum)})
	}
	return string(out)
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
// of the durable journal: a sweep stopped mid-flight (the in-process
// stand-in for SIGKILL — the run is cancelled with the journal partially
// filled) and resubmitted against a fresh engine over the same journal
// directory produces a canonical NDJSON stream byte-identical to a
// never-interrupted run's. Retention passes race both phases: the most
// aggressive policy applied between crash and resume must leave the
// in-progress WAL untouched, and once the sweep is sealed the same policy
// retires its WAL, so a further resubmission re-executes the grid — still
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
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	// Crash deterministically mid-flight: cancel the run from the stream
	// once its fourth row is journaled and streamed. With one sweep worker
	// the pool runs at most a cell ahead of the stream, so most of the 12
	// cells never run and the WAL gets no done record.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	opts := Options{SweepWorkers: 1, RequestLog: slog.New(slog.DiscardHandler)}
	_, err = runSweep(ctx, engine.New(), opts, spec, j, func([]byte) {
		if streamed++; streamed == 4 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	probe, err := js.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	journaled := len(probe.Completed())
	wasDone := probe.Done()
	probe.Close()
	if wasDone || journaled < 4 || journaled >= 12 {
		t.Fatalf("crash journaled %d of 12 cells (done record %t), want a partial WAL", journaled, wasDone)
	}

	// No done record, so the most aggressive retention may touch neither
	// by age nor by size, and replay must survive intact. (The sealed
	// outcome is exercised by the retire-and-reexecute phase at the end.)
	wal := filepath.Join(dir, hash+".wal")
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	aggressive := journal.Retention{Retain: time.Nanosecond, MaxBytes: 1}
	if err := js.SetRetention(aggressive); err != nil {
		t.Fatal(err)
	}
	if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("retention touched an in-progress WAL (%v)", err)
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

	// Now the sweep is sealed: the same policy retires its WAL, and
	// resubmitting the spec re-executes the whole grid to the same bytes.
	js3, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := js3.SetRetention(aggressive); err != nil {
		t.Fatal(err)
	}
	if got := testutil.ToFloat64(js3.Metrics().Retired); got != 1 {
		t.Fatalf("retention retired %v WALs after completion, want 1", got)
	}
	eng := engine.New()
	recomputed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js3}), crashSpec))
	if recomputed != baseline {
		t.Fatalf("post-retirement rerun differs from baseline:\n--- baseline ---\n%s--- rerun ---\n%s", baseline, recomputed)
	}
	if eng.Computations() == 0 {
		t.Fatal("post-retirement rerun executed nothing; the retired WAL should have forced recomputation")
	}
}

// TestJournaledSweepReplaysUnderRetention: a retention policy that the
// directory is far inside keeps a completed sweep's WAL whole, both at
// the seal and at a restart's startup pass, so resubmitting the spec
// still replays entirely from disk.
func TestJournaledSweepReplaysUnderRetention(t *testing.T) {
	baseline := baselineNDJSON(t)
	dir := t.TempDir()
	roomy := journal.Retention{Retain: 24 * time.Hour, MaxBytes: 1 << 30}
	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := js.SetRetention(roomy); err != nil {
		t.Fatal(err)
	}
	sweepBody(t, NewHandler(engine.New(), Options{Journal: js}), crashSpec)

	js2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := js2.SetRetention(roomy); err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	replayed := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js2}), crashSpec))
	if replayed != baseline {
		t.Fatalf("replay under retention differs from baseline:\n--- baseline ---\n%s--- replayed ---\n%s", baseline, replayed)
	}
	if got := eng.Computations(); got != 0 {
		t.Fatalf("replay under retention ran %d computations, want 0", got)
	}
}

// TestLegacyStubReseals: a stub an earlier release's compactor left — a
// lone done record, with or without the trailing newline — re-executes
// the grid to the baseline bytes and ends sealed again, so a second
// resubmission replays entirely from disk.
func TestLegacyStubReseals(t *testing.T) {
	baseline := baselineNDJSON(t)
	spec, err := sweep.ParseSpec([]byte(crashSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, done := range []string{"{\"type\":\"done\"}\n", `{"type":"done"}`} {
		dir := t.TempDir()
		wal := filepath.Join(dir, hash+".wal")
		if err := os.WriteFile(wal, walFrame([]byte(done)), 0o644); err != nil {
			t.Fatal(err)
		}
		for run, wantComputations := range []bool{true, false} {
			js, err := journal.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			eng := engine.New()
			got := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js}), crashSpec))
			if got != baseline {
				t.Fatalf("stub %q, run %d: canonical stream differs from baseline:\n--- baseline ---\n%s--- got ---\n%s", done, run, baseline, got)
			}
			if computed := eng.Computations() > 0; computed != wantComputations {
				t.Fatalf("stub %q, run %d: ran %d computations", done, run, eng.Computations())
			}
			raw, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			payloads := walPayloads(t, raw)
			if last := string(payloads[len(payloads)-1]); last != "{\"type\":\"done\"}\n" {
				t.Fatalf("stub %q, run %d: last WAL record is %q, want the done row", done, run, last)
			}
		}
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
	_, err = runSweep(ctx, eng, opts, spec, j, func([]byte) {
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

// legacyCellPayloads frames the cell rows of a raw sweep stream as
// journal payloads the way earlier releases wrote them: json.Marshal,
// HTML-escaped, with no trailing newline.
func legacyCellPayloads(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	var payloads [][]byte
	if _, err := sweep.ReadRows(bytes.NewReader(raw), func(cr sweep.CellResult) {
		payload, err := json.Marshal(map[string]any{"type": "cell", "cell": cr})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}); err != nil {
		t.Fatal(err)
	}
	return payloads
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
	for _, payload := range legacyCellPayloads(t, raw)[:k] {
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

// escapeSpec is a two-cell grid whose cells both fail with an error that
// holds a character encoding/json escapes by default ('<').
const escapeSpec = `{"protocols":[{"spec":"flock:3"},{"spec":"flock:4"}],"kinds":["verify"],"sizes":[3],"options":{"minSize":9}}`

// TestLegacyEscapedWALResumes: a cell record that an earlier release
// journaled HTML-escaped and without a trailing newline still replays, and
// the cell it replays streams as the very line an uninterrupted run
// streams, unescaped, so the resumed stream is byte-identical too.
func TestLegacyEscapedWALResumes(t *testing.T) {
	raw := sweepBody(t, NewHandler(engine.New(), Options{}), escapeSpec)
	spec, err := sweep.ParseSpec([]byte(escapeSpec))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sweep.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload := legacyCellPayloads(t, raw)[0]
	if !bytes.Contains(payload, []byte(`maxSize 3 \u003c minSize 9`)) {
		t.Fatalf("legacy payload carries no escaped character: %s", payload)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, hash+".wal"), walFrame(payload), 0o644); err != nil {
		t.Fatal(err)
	}

	js, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed := sweepBody(t, NewHandler(engine.New(), Options{Journal: js}), escapeSpec)
	if got := testutil.ToFloat64(js.Metrics().ReplayedCells); got != 1 {
		t.Fatalf("resume replayed %v cells, want 1", got)
	}
	first := func(b []byte) []byte { return b[:bytes.IndexByte(b, '\n')+1] }
	if !bytes.Equal(first(resumed), first(raw)) {
		t.Fatalf("replayed cell streamed as\n%s\nwant the original line\n%s", first(resumed), first(raw))
	}
	if got, want := canonicalNDJSON(t, resumed), canonicalNDJSON(t, raw); got != want {
		t.Fatalf("resumed canonical stream differs from baseline:\n--- baseline ---\n%s--- resumed ---\n%s", want, got)
	}
}

// walPayloads splits a well-formed WAL into its record payloads.
func walPayloads(t *testing.T, wal []byte) [][]byte {
	t.Helper()
	var payloads [][]byte
	for len(wal) > 0 {
		if len(wal) < 8 {
			t.Fatalf("torn record header: %d bytes", len(wal))
		}
		n := int(binary.LittleEndian.Uint32(wal))
		if len(wal)-8 < n {
			t.Fatalf("torn record: %d of %d payload bytes", len(wal)-8, n)
		}
		payload := wal[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(wal[4:]) {
			t.Fatal("record CRC mismatch")
		}
		payloads = append(payloads, payload)
		wal = wal[8+n:]
	}
	return payloads
}

// TestJournalRecordsAreStreamedRows: a journaled sweep encodes each cell
// row once. Its WAL holds one cell record per streamed cell whose payload
// is, byte for byte, the line the client received — unescaped, newline
// included — then the done record; on the local pool and through a
// coordinator alike.
func TestJournalRecordsAreStreamedRows(t *testing.T) {
	for _, m := range []sweepMode{
		{name: "local+journal", workers: -1, journal: true},
		{name: "coordinator/1+journal", workers: 1, journal: true},
	} {
		for _, specJSON := range []string{crashSpec, escapeSpec} {
			opts := modeOptions(t, m, 2)
			body := sweepBody(t, NewHandler(engine.New(), opts), specJSON)
			spec, err := sweep.ParseSpec([]byte(specJSON))
			if err != nil {
				t.Fatal(err)
			}
			hash, err := sweep.SpecHash(spec)
			if err != nil {
				t.Fatal(err)
			}
			wal, err := os.ReadFile(filepath.Join(opts.Journal.Dir(), hash+".wal"))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(body, []byte("\n"))
			cells := lines[:len(lines)-2] // drop the summary row and the empty tail
			payloads := walPayloads(t, wal)
			if len(payloads) != len(cells)+1 {
				t.Fatalf("%s: WAL holds %d records for %d streamed cells, want one per cell plus done", m.name, len(payloads), len(cells))
			}
			for i, line := range cells {
				if !bytes.Equal(payloads[i], line) {
					t.Errorf("%s: WAL record %d differs from the streamed line:\n record: %q\n   line: %q", m.name, i, payloads[i], line)
				}
			}
			if done := payloads[len(cells)]; string(done) != "{\"type\":\"done\"}\n" {
				t.Errorf("%s: last WAL record is %q, want the done row", m.name, done)
			}
		}
	}
}
