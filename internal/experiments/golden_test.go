package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files (testdata/quick.golden, docs/results.md) from the current tables")

// TestQuickGolden pins every number of the paper's tables: the -quick
// rendering of E1–E11, exactly as `ppexperiments -quick` prints it, must
// equal testdata/quick.golden byte for byte. A core change that moves a
// stable-basis size, a saturation length, a certificate constant or a
// seeded parallel time fails here. Regenerate with
// `go test ./internal/experiments -run TestQuickGolden -update`, and
// explain every changed number: the golden is a claim about the paper,
// not a fixture.
func TestQuickGolden(t *testing.T) {
	tables, err := All(Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	checkGolden(t, filepath.Join("testdata", "quick.golden"), b.String())
}

// TestPublishedResults keeps the published tables current: docs/results.md
// must equal, byte for byte, the full-mode markdown rendering that
// `ppexperiments -markdown` prints (seed 1). Env-gated (PP_RESULTS=1)
// because the full run takes seconds, not milliseconds; CI runs it as its
// own step. Regenerate with
// `PP_RESULTS=1 go test ./internal/experiments -run TestPublishedResults -update`.
func TestPublishedResults(t *testing.T) {
	if os.Getenv("PP_RESULTS") == "" {
		t.Skip("set PP_RESULTS=1 to regenerate and check docs/results.md")
	}
	tables, err := All(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Markdown())
	}
	checkGolden(t, filepath.Join("..", "..", "docs", "results.md"), b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update, and reports the first differing line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("tables differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update only if the change is explained)", path, i+1, g, w)
			}
		}
	}
}
