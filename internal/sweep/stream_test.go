package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestAppendRowMatchesEncoder: AppendRow's bytes are encoding/json's with
// HTML escaping off, newline included, appended after what buf held.
func TestAppendRowMatchesEncoder(t *testing.T) {
	p := int64(3)
	rows := []StreamRow{
		{Type: "cell", Cell: &CellResult{Index: 4, Protocol: "flock:3", Param: &p, Size: 3, Kind: engine.KindVerify,
			Error: "engine: bad request: maxSize 3 < minSize 9 & more", ElapsedMillis: 0.25}},
		{Type: "summary", Summary: &Result{TotalCells: 1, Completed: 1, Failed: 1}},
		{Type: "error", Error: "<stopped>"},
		{Type: "done"},
	}
	for _, row := range rows {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(row); err != nil {
			t.Fatal(err)
		}
		got := AppendRow([]byte("prefix"), row)
		if string(got) != "prefix"+want.String() {
			t.Errorf("AppendRow(%s row) = %q, want %q", row.Type, got, "prefix"+want.String())
		}
	}
}

// TestReadRows pins the reader's contract: cells in stream order, the
// summary's aggregate, and a stop at an error row or an undecodable one.
func TestReadRows(t *testing.T) {
	c0, c1 := CellResult{Index: 0, OK: true}, CellResult{Index: 1, Error: "a < b"}
	sum := &Result{TotalCells: 2, Completed: 2, Failed: 1}
	var stream []byte
	stream = AppendRow(stream, StreamRow{Type: "cell", Cell: &c0})
	stream = AppendRow(stream, StreamRow{Type: "cell", Cell: &c1})
	stream = append(stream, `{"type":"range","cells":[{"from":0,"to":1}]}`+"\n"...)
	full := AppendRow(bytes.Clone(stream), StreamRow{Type: "summary", Summary: sum})
	for _, tc := range []struct {
		name, stream string
		cells        int
		summary      bool
		err          string
	}{
		{"complete", string(full), 2, true, ""},
		{"no summary", string(stream), 2, false, ""},
		{"error row", string(stream) + `{"type":"error","error":"boom"}` + "\n" + string(full), 2, false, "boom"},
		{"torn row", string(full[:len(full)-9]), 2, false, "reading stream: unexpected EOF"},
		{"garbage", "{]", 0, false, "reading stream: invalid character"},
	} {
		var cells []CellResult
		res, err := ReadRows(strings.NewReader(tc.stream), func(cr CellResult) { cells = append(cells, cr) })
		if len(cells) != tc.cells || (res != nil) != tc.summary {
			t.Errorf("%s: %d cells, summary %+v; want %d cells, summary %v", tc.name, len(cells), res, tc.cells, tc.summary)
		}
		if tc.cells == 2 && (cells[0].Index != 0 || cells[1].Error != "a < b") {
			t.Errorf("%s: cells %+v", tc.name, cells)
		}
		if res != nil && (res.TotalCells != 2 || res.Failed != 1) {
			t.Errorf("%s: summary %+v", tc.name, res)
		}
		if (err == nil) != (tc.err == "") || err != nil && !strings.HasPrefix(err.Error(), tc.err) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.err)
		}
	}
}

// FuzzReadRows throws arbitrary bytes at ReadRows, which decodes worker
// and coordinator responses, that is, input from outside the process. It
// never panics, and the cells it delivers survive the row codec: encoded
// by AppendRow and read back, they are the same cells, re-encoding to the
// same bytes.
func FuzzReadRows(f *testing.F) {
	p := int64(5)
	c0 := CellResult{Index: 0, Protocol: "flock:5", Param: &p, Size: 6, Kind: engine.KindSimulate, OK: true, ElapsedMillis: 1.5,
		Result: &engine.Result{Kind: engine.KindSimulate}}
	c1 := CellResult{Index: 1, Protocol: "flock:3", Size: 3, Kind: engine.KindVerify, Error: "maxSize 3 < minSize 9"}
	var stream []byte
	stream = AppendRow(stream, StreamRow{Type: "cell", Cell: &c0})
	stream = AppendRow(stream, StreamRow{Type: "cell", Cell: &c1})
	stream = AppendRow(stream, StreamRow{Type: "summary", Summary: &Result{TotalCells: 2, Completed: 2, Failed: 1}})
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte(`{"type":"cell","cell":{"index":2,"error":"a < b","elapsedMillis":0}}`))
	f.Add([]byte(`{"type":"error","error":"worker gone"}`))
	f.Add([]byte(`{"type":"cell","cell":null}{"type":"summary"}`))
	f.Add([]byte(`{"TYPE":"cell","Cell":{"Index":1e2,"param":-7,"kind":"\ud800"}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var cells []CellResult
		ReadRows(bytes.NewReader(data), func(cr CellResult) { cells = append(cells, cr) })
		encode := func(cells []CellResult) []byte {
			var b []byte
			for i := range cells {
				n := len(b)
				if b = AppendRow(b, StreamRow{Type: "cell", Cell: &cells[i]}); len(b) == n {
					t.Fatalf("decoded cell %+v does not encode", cells[i])
				}
			}
			return b
		}
		enc := encode(cells)
		var again []CellResult
		res, err := ReadRows(bytes.NewReader(enc), func(cr CellResult) { again = append(again, cr) })
		if err != nil || res != nil {
			t.Fatalf("re-reading %d encoded cells: summary %+v, err %v", len(cells), res, err)
		}
		if len(again) != len(cells) {
			t.Fatalf("re-read %d cells, want %d", len(again), len(cells))
		}
		if enc2 := encode(again); !bytes.Equal(enc2, enc) {
			t.Fatalf("cells changed through the codec:\n%s\n%s", enc, enc2)
		}
	})
}
