package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current tables")

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
	got := b.String()
	path := filepath.Join("testdata", "quick.golden")
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
				t.Fatalf("quick tables differ from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update only if the change is explained)", path, i+1, g, w)
			}
		}
	}
}
