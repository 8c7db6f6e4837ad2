package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// TestSweepStreamCoalescesFlushes: rows are flushed on a deadline, not one
// by one. Every flush is armed by a write at least streamFlushDelay before
// it, and the next one only after it, so however slow the host, a sweep
// that took elapsed flushes at most 1 + ⌈elapsed / streamFlushDelay⌉ times.
// Flushing per row would take 22 flushes here: the header and 21 rows.
func TestSweepStreamCoalescesFlushes(t *testing.T) {
	h := NewHandler(engine.New(), Options{SweepWorkers: 1})
	sizes := make([]string, 20)
	for i := range sizes {
		sizes[i] = fmt.Sprint(i + 2)
	}
	spec := `{"name": "coalesce", "protocols": [{"spec": "flock:3"}], "kinds": ["simulate"],
	  "sizes": [` + strings.Join(sizes, ",") + `], "options": {"seed": 7}}`
	w := &flushCountingWriter{header: make(http.Header), notify: make(chan struct{}, 1)}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(spec))

	start := time.Now()
	h.ServeHTTP(w, req)
	elapsed := time.Since(start)

	if rows := w.writtenRows(); rows != 21 {
		t.Fatalf("%d rows written, want 20 cells + summary", rows)
	}
	bound := 1 + int((elapsed+streamFlushDelay-1)/streamFlushDelay)
	if got := w.flushCount(); got > bound {
		t.Errorf("%d flushes over %v, want ≤ %d (1 + ⌈elapsed / %v⌉)", got, elapsed, bound, streamFlushDelay)
	}
}

// TestSweepRowVisibleDuringSlowCell: a finished row reaches the client
// while a later cell is still running, not only when the sweep ends. The
// second cell is a protocol that never converges, given a step budget it
// cannot exhaust, so it runs until the client hangs up: the first row can
// only arrive before the sweep finishes.
func TestSweepRowVisibleDuringSlowCell(t *testing.T) {
	srv := httptest.NewServer(NewHandler(engine.New(), Options{SweepWorkers: 1}))
	defer srv.Close()
	spec := `{
	  "name": "visible",
	  "protocols": [{"spec": "flock:3"}, {"inline": {
	    "name": "spinner",
	    "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
	    "transitions": [["a","a","b","b"], ["b","b","a","a"]],
	    "inputs": {"x": "a"},
	    "completeWithIdentity": true
	  }}],
	  "kinds": ["simulate"],
	  "sizes": [8],
	  "options": {"seed": 3, "maxSteps": 1000000000000, "timeoutMillis": 600000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // hangs up, which cancels the spinning cell
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatal(err)
	}
	// The header comes with the first flush, so both the response and its
	// first row are awaited under the same deadline.
	type result struct {
		line []byte
		err  error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			first <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		first <- result{b, err}
	}()
	var row sweep.StreamRow
	select {
	case r := <-first:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if err := json.Unmarshal(r.line, &row); err != nil {
			t.Fatalf("first row %q: %v", r.line, err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no row reached the client within 60s while the slow cell ran")
	}
	if row.Type != "cell" || row.Cell == nil || row.Cell.Index != 0 || row.Cell.Error != "" {
		t.Fatalf("first row = %+v, want the finished cell 0", row)
	}
}

// writeLog is a ResponseWriter that keeps each Write apart.
type writeLog struct {
	mu     sync.Mutex
	header http.Header
	writes [][]byte
}

func (w *writeLog) Header() http.Header { return w.header }
func (w *writeLog) WriteHeader(int)     {}
func (w *writeLog) Flush()              {}
func (w *writeLog) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// TestSweepStreamWritesOncePerFlush: rows reach the ResponseWriter in one
// Write per flush, not one per row. A flush fires at least
// streamFlushDelay after the previous one (see
// TestSweepStreamCoalescesFlushes), and one more Write comes at the end,
// so a sweep that took elapsed writes at most 1 + ⌈elapsed /
// streamFlushDelay⌉ times; writing per row would take 41 here. The 40
// rows stay below streamBufferSize. Every Write ends on a row boundary,
// and together they are the rows, byte for byte.
func TestSweepStreamWritesOncePerFlush(t *testing.T) {
	h := NewHandler(engine.New(), Options{SweepWorkers: 1})
	sizes := make([]string, 40)
	for i := range sizes {
		sizes[i] = fmt.Sprint(i + 2)
	}
	spec := `{"name": "writes", "protocols": [{"spec": "flock:3"}], "kinds": ["simulate"],
	  "sizes": [` + strings.Join(sizes, ",") + `], "options": {"seed": 7}}`
	w := &writeLog{header: make(http.Header)}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(spec))

	start := time.Now()
	h.ServeHTTP(w, req)
	elapsed := time.Since(start)

	bound := 1 + int((elapsed+streamFlushDelay-1)/streamFlushDelay)
	if len(w.writes) > bound {
		t.Errorf("%d writes over %v, want ≤ %d (1 + ⌈elapsed / %v⌉)", len(w.writes), elapsed, bound, streamFlushDelay)
	}
	var stream []byte
	for i, p := range w.writes {
		if len(p) == 0 || p[len(p)-1] != '\n' {
			t.Errorf("write %d of %d does not end on a row boundary: %q", i, len(w.writes), p)
		}
		stream = append(stream, p...)
	}
	if len(stream) >= streamBufferSize {
		t.Fatalf("%d bytes streamed, want fewer than streamBufferSize", len(stream))
	}
	lines := bytes.SplitAfter(stream, []byte("\n"))
	lines = lines[:len(lines)-1] // after the last newline
	if len(lines) != 41 {
		t.Fatalf("%d rows written, want 40 cells + summary", len(lines))
	}
	for i, line := range lines {
		var row sweep.StreamRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("row %d %q: %v", i, line, err)
		}
		switch {
		case i < 40 && (row.Type != "cell" || row.Cell == nil || row.Cell.Index != i || !row.Cell.OK):
			t.Errorf("row %d = %s, want the successful cell %d", i, line, i)
		case i == 40 && (row.Type != "summary" || row.Summary == nil || row.Summary.Completed != 40):
			t.Errorf("last row = %s, want the summary of 40 cells", line)
		}
		if again := sweep.AppendRow(nil, row); !bytes.Equal(again, line) {
			t.Errorf("row %d is not a row AppendRow writes:\n%s\n%s", i, line, again)
		}
	}
}

// abortingWriter panics with http.ErrAbortHandler on every Write, as a
// wrapped ResponseWriter may to abort the connection, and closes panicked
// at the first.
type abortingWriter struct {
	header   http.Header
	once     sync.Once
	panicked chan struct{}
}

func (w *abortingWriter) Header() http.Header { return w.header }
func (w *abortingWriter) WriteHeader(int)     {}
func (w *abortingWriter) Flush()              {}
func (w *abortingWriter) Write([]byte) (int, error) {
	w.once.Do(func() { close(w.panicked) })
	panic(http.ErrAbortHandler)
}

// TestSweepFlushAbortRecovered: a Write that panics on the flush timer's
// goroutine does not take the process down. The first cell's row goes out
// on the timer while the second cell spins, so that is where the panic is
// raised; once the spinning cell is cancelled, the handler raises it
// again, which is how net/http learns to abort the connection, and the
// sweep is no longer counted in flight.
func TestSweepFlushAbortRecovered(t *testing.T) {
	h, sm := newHandler(engine.New(), Options{SweepWorkers: 1})
	spec := `{
	  "name": "abort",
	  "protocols": [{"spec": "flock:3"}, {"inline": {
	    "name": "spinner",
	    "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
	    "transitions": [["a","a","b","b"], ["b","b","a","a"]],
	    "inputs": {"x": "a"},
	    "completeWithIdentity": true
	  }}],
	  "kinds": ["simulate"],
	  "sizes": [8],
	  "options": {"seed": 3, "maxSteps": 1000000000000, "timeoutMillis": 600000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(spec)).WithContext(ctx)
	w := &abortingWriter{header: make(http.Header), panicked: make(chan struct{})}
	ended := make(chan any, 1)
	go func() {
		defer func() { ended <- recover() }()
		h.ServeHTTP(w, req)
	}()
	select {
	case <-w.panicked:
	case <-time.After(60 * time.Second):
		t.Fatal("the first row was not written within 60s")
	}
	select {
	case p := <-ended:
		t.Fatalf("handler ended (recovered %v) while its second cell should still spin", p)
	default:
	}
	cancel()
	select {
	case p := <-ended:
		if p != http.ErrAbortHandler {
			t.Fatalf("handler ended with panic %v, want http.ErrAbortHandler", p)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("handler did not return after the sweep was cancelled")
	}
	if got := sm.SweepsInflight.Value(); got != 0 {
		t.Errorf("sweeps_inflight = %v after the aborted sweep, want 0", got)
	}
}

// TestRowWriterBoundsBuffer: a row that would overflow the stream buffer
// writes the buffer out first, so no Write carries more than
// streamBufferSize bytes unless one row alone is larger, and the Writes
// together are the rows in order.
func TestRowWriterBoundsBuffer(t *testing.T) {
	w := &writeLog{header: make(http.Header)}
	rw := newRowWriter(w)
	var want []byte
	big := append(bytes.Repeat([]byte("y"), streamBufferSize+1), '\n')
	for i := 0; i < 100; i++ {
		row := fmt.Appendf(nil, "%03d%s\n", i, strings.Repeat("x", 996))
		if i == 50 {
			row = big
		}
		rw.writeRow(row)
		want = append(want, row...)
	}
	rw.close()
	var got []byte
	for i, p := range w.writes {
		if len(p) > streamBufferSize && !bytes.Equal(p, big) {
			t.Errorf("write %d carries %d bytes, more than streamBufferSize", i, len(p))
		}
		got = append(got, p...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the %d writes are not the rows written (%d bytes, want %d)", len(w.writes), len(got), len(want))
	}
	if len(w.writes) < 4 {
		t.Errorf("%d writes for %d bytes, want the buffer written out as it fills", len(w.writes), len(want))
	}
}
