package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics/testutil"
	"repro/internal/sweep"
)

func cell(i int) sweep.CellResult {
	return sweep.CellResult{Index: i, Protocol: "binary:5", Size: 5, Kind: "stable", OK: true}
}

// cellRow is cell(i)'s stream row, the payload AppendCell journals.
func cellRow(i int) []byte {
	c := cell(i)
	return sweep.AppendRow(nil, sweep.StreamRow{Type: "cell", Cell: &c})
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Sweep("abc123")
	if err != nil {
		t.Fatal(err)
	}
	if j.Done() || len(j.Completed()) != 0 {
		t.Fatal("fresh journal is not empty")
	}
	for i := 0; i < 3; i++ {
		if err := j.AppendCell(i, cellRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate appends are ignored, not re-journaled.
	if err := j.AppendCell(1, cellRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s2.Sweep("abc123")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done() {
		t.Fatal("journal done without a done record")
	}
	got := j2.Completed()
	if len(got) != 3 {
		t.Fatalf("replayed %d cells, want 3", len(got))
	}
	for i, cr := range got {
		if cr.Index != i || cr.Protocol != "binary:5" || !cr.OK {
			t.Fatalf("cell %d replayed wrong: %+v", i, cr)
		}
	}
	if v := testutil.ToFloat64(s2.Metrics().Recoveries); v != 1 {
		t.Fatalf("recoveries = %v, want 1", v)
	}
	if err := j2.AppendDone(); err != nil {
		t.Fatal(err)
	}
	if !j2.Done() {
		t.Fatal("AppendDone did not mark done")
	}
}

func TestDoneSurvivesReplay(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, _ := s.Sweep("deadbeef")
	j.AppendCell(0, cellRow(0))
	j.AppendDone()
	j.Close()
	j2, err := s.Sweep("deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !j2.Done() || len(j2.Completed()) != 1 {
		t.Fatal("done journal did not replay as done")
	}
}

// TestTornTailTruncated pins crash repair: a partial record at the tail —
// what a kill -9 mid-append leaves — is cut on replay, and the cells
// before it survive.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	j, _ := s.Sweep("feed01")
	j.AppendCell(0, cellRow(0))
	j.AppendCell(1, cellRow(1))
	j.Close()

	path := filepath.Join(dir, "feed01.wal")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"torn write":  func(b []byte) []byte { return b[:len(b)-5] },
		"flipped bit": func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 1; return c },
		"huge length": func(b []byte) []byte { return append(append([]byte(nil), b...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, _ := Open(dir)
			j2, err := s2.Sweep("feed01")
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			// The flipped bit corrupts the last cell record; the torn write
			// and appended garbage leave both intact.
			if n := len(j2.Completed()); n == 0 || n > 2 {
				t.Fatalf("replayed %d cells after corruption, want 1 or 2", n)
			}
			if v := testutil.ToFloat64(s2.Metrics().Truncations); v != 1 {
				t.Fatalf("truncations = %v, want 1", v)
			}
			// The repaired journal accepts appends and replays cleanly.
			if err := j2.AppendCell(2, cellRow(2)); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			s3, _ := Open(dir)
			j3, err := s3.Sweep("feed01")
			if err != nil {
				t.Fatal(err)
			}
			if v := testutil.ToFloat64(s3.Metrics().Truncations); v != 0 {
				t.Fatal("repaired journal replayed dirty")
			}
			j3.Close()
			// Restore the pristine file for the next sub-test.
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentOpenRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	j, err := s.Sweep("aa11")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep("aa11"); err == nil {
		t.Fatal("second open of an in-progress sweep succeeded")
	}
	j.Close()
	j2, err := s.Sweep("aa11")
	if err != nil {
		t.Fatalf("reopen after close failed: %v", err)
	}
	j2.Close()
}

func TestInvalidHashRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	for _, h := range []string{"", "UPPER", "../escape", "a/b", "has space"} {
		if _, err := s.Sweep(h); err == nil {
			t.Fatalf("hash %q accepted", h)
		}
	}
}

// TestAppendFaultInjection pins the failpoints: an injected journal.append
// or journal.sync error surfaces to the caller and counts as an append
// error, and the journal stays usable for the next append.
func TestAppendFaultInjection(t *testing.T) {
	s, _ := Open(t.TempDir())
	j, _ := s.Sweep("bb22")
	defer j.Close()

	for _, point := range []string{faultinject.PointJournalAppend, faultinject.PointJournalSync} {
		if err := faultinject.Configure(point + "=at:1"); err != nil {
			t.Fatal(err)
		}
		err := j.AppendCell(0, cellRow(0))
		faultinject.Disable()
		if err == nil {
			t.Fatalf("%s fault not surfaced", point)
		}
		// The failed cell was not marked seen: the retry goes through.
		if err := j.AppendCell(0, cellRow(0)); err != nil {
			t.Fatalf("append after %s fault: %v", point, err)
		}
		j.seen = map[int]bool{}
	}
	if v := testutil.ToFloat64(s.Metrics().AppendErrors); v != 2 {
		t.Fatalf("append errors = %v, want 2", v)
	}
}

// walPrefix is the replay oracle: an in-memory walk over data's frames
// that returns the longest valid prefix and the records in it.
func walPrefix(data []byte) (int, []sweep.StreamRow) {
	var recs []sweep.StreamRow
	off := 0
	for len(data)-off >= 8 {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 || n > maxRecord || len(data)-off-8 < n {
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		var rec sweep.StreamRow
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	return off, recs
}

// rawFrame frames a hand-written record payload, such as the start and
// range records, and the HTML-escaped cell records, earlier releases
// wrote.
func rawFrame(payload string) []byte { return encodeFrame([]byte(payload)) }

// isSealed applies the retention pass's sealed-tail check to wal.
func isSealed(wal []byte) bool { return sealed(bytes.NewReader(wal), int64(len(wal))) }

// FuzzJournalReplay: whatever a crash or bit rot leaves in a WAL, replay
// never panics, truncates the file to exactly the longest valid prefix,
// recovers the first occurrence of every cell in it, and leaves a log
// that an append extends: a second replay yields that prefix plus the new
// record, cleanly. Retention's sealed-tail check agrees with replay: when
// it holds for the prefix replay keeps, the last record is done; it never
// holds for a crash's torn tail after that prefix; and it holds once the
// journal seals the file, which a second seal leaves unchanged. The seed
// opens with the legacy start and range records, which replay skips, and a
// legacy HTML-escaped cell record.
func FuzzJournalReplay(f *testing.F) {
	head := rawFrame(`{"type":"start","spec":"f00d","total":3}`)
	head = append(head, rawFrame(`{"type":"range","worker":"w1","cells":[{"from":0,"to":2}]}`)...)
	head = append(head, rawFrame(`{"type":"cell","cell":{"index":7,"kind":"verify","ok":false,"error":"maxSize 3 \u003c minSize 9","elapsedMillis":0}}`)...)
	for _, payload := range [][]byte{cellRow(0), cellRow(1), cellRow(0), doneRow} {
		head = append(head, encodeFrame(payload)...)
	}
	f.Add(head)
	f.Add([]byte{})
	f.Add(head[:len(head)-3])                                            // torn payload
	f.Add(head[:len(head)-len(doneRow)-5])                               // torn header
	f.Add(append(bytes.Clone(head), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // huge length
	flipped := bytes.Clone(head)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	f.Add(doneFrame) // a stub of an earlier release
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f00d.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid, recs := walPrefix(data)
		if isSealed(data[:valid]) && recs[len(recs)-1].Type != "done" {
			t.Fatalf("sealed-tail check holds, but the last replayed record is %q", recs[len(recs)-1].Type)
		}
		var want []sweep.CellResult
		seen := map[int]bool{}
		for _, rec := range recs {
			if rec.Type == "cell" && rec.Cell != nil && !seen[rec.Cell.Index] {
				seen[rec.Cell.Index] = true
				want = append(want, *rec.Cell)
			}
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Sweep("f00d")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:valid]) {
			t.Fatalf("replay left %d bytes, want the %d-byte valid prefix of %d", len(got), valid, len(data))
		}
		if v, dirty := testutil.ToFloat64(s.Metrics().Truncations), valid < len(data); (v == 1) != dirty || v > 1 {
			t.Fatalf("truncations = %v for a %d-byte tail", v, len(data)-valid)
		}
		if !reflect.DeepEqual(j.Completed(), want) {
			t.Fatalf("replayed cells %+v, want %+v", j.Completed(), want)
		}

		next := 0
		for seen[next] {
			next++
		}
		added := cell(next)
		if err := j.AppendCell(next, cellRow(next)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		extended := append(bytes.Clone(data[:valid]), encodeFrame(cellRow(next))...)
		if got, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, extended) {
			t.Fatal("append did not extend the valid prefix")
		}
		for k := valid + 1; k < len(extended); k++ {
			if isSealed(extended[:k]) {
				t.Fatalf("sealed-tail check holds for a torn cell record (%d of %d bytes)", k-valid, len(extended)-valid)
			}
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := s2.Sweep("f00d")
		if err != nil {
			t.Fatal(err)
		}
		if v := testutil.ToFloat64(s2.Metrics().Truncations); v != 0 {
			t.Fatal("second replay found a dirty tail")
		}
		if !reflect.DeepEqual(j2.Completed(), append(want, added)) {
			t.Fatalf("second replay: %d cells, want the %d replayed plus the appended one", len(j2.Completed()), len(want))
		}
		if err := j2.AppendDone(); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if got, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if !isSealed(got) {
			t.Fatal("AppendDone left the WAL unsealed")
		}
		j3, err := s2.Sweep("f00d")
		if err != nil {
			t.Fatal(err)
		}
		if err := j3.AppendDone(); err != nil {
			t.Fatal(err)
		}
		j3.Close()
		if resealed, err := os.ReadFile(path); err != nil || !bytes.Equal(resealed, got) {
			t.Fatalf("sealing a sealed WAL again changed it (%v)", err)
		}
	})
}
