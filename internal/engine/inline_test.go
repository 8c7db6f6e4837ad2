package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols"
)

// inlineHashCases are inline protocols whose canonical form exercises the
// encoder's corners: string escaping (HTML characters, U+2028/U+2029,
// control bytes, quotes, invalid UTF-8 replaced on decode), leader and
// input maps with several keys in byte order, identity completion, and
// duplicate transitions.
var inlineHashCases = map[string]string{
	"ascii": `{"name":"plain","states":[{"name":"A","output":1},{"name":"B","output":0}],` +
		`"transitions":[["A","B","B","B"],["A","A","A","A"],["B","B","B","B"]],"inputs":{"x":"A"}}`,
	"non-ascii": `{"name":"héllo wörld ✓ 🐦","states":[{"name":"ä","output":1},{"name":"日本","output":0}],` +
		`"transitions":[["ä","日本","日本","日本"]],"inputs":{"ξ":"ä"},"completeWithIdentity":true}`,
	"html": `{"name":"<a href=\"x\">&amp;</a>","states":[{"name":"<","output":1},{"name":">","output":0},{"name":"&","output":0}],` +
		`"transitions":[["<",">","&","&"]],"inputs":{"x&y":"<","x<y":">"},"completeWithIdentity":true}`,
	"separators": "{\"name\":\"line\u2028para\u2029end\",\"states\":[{\"name\":\"\u2028\",\"output\":1},{\"name\":\"q\\u2029\",\"output\":0}]," +
		`"inputs":{"\u2028":"q\u2029"},"completeWithIdentity":true}`,
	"control": `{"name":"tab\there\nnl\r\u0001\u001f\b\f\u007f","states":[{"name":"\"quoted\"","output":1},{"name":"back\\slash/","output":0}],` +
		`"inputs":{"x":"\"quoted\""},"completeWithIdentity":true}`,
	"invalid-utf8": "{\"name\":\"bad\xff\xfebytes\xed\xa0\x80\",\"states\":[{\"name\":\"\xc3\",\"output\":1}]," +
		"\"inputs\":{\"x\":\"\xc3\"},\"completeWithIdentity\":true}",
	"surrogates": `{"name":"🐦 \ud800 \udc00x","states":[{"name":"é","output":1}],` +
		`"inputs":{"x":"é"},"completeWithIdentity":true}`,
	"leaders": `{"name":"led","states":[{"name":"L","output":1},{"name":"a","output":0},{"name":"B","output":1}],` +
		`"transitions":[["L","a","L","L"],["a","B","B","B"]],"leaders":{"L":2,"B":1,"a":0},` +
		`"inputs":{"y":"a","x":"B","X":"a"},"completeWithIdentity":true}`,
	"identity-completed": `{"name":"idc","states":[{"name":"p","output":0},{"name":"q","output":1},{"name":"r","output":0}],` +
		`"transitions":[["q","p","q","q"],["r","r","p","q"]],"inputs":{"x":"p"},"completeWithIdentity":true}`,
	"duplicates": `{"name":"dup","states":[{"name":"A","output":1},{"name":"B","output":0}],` +
		`"transitions":[["B","A","B","B"],["A","B","B","B"],["A","B","B","A"],["B","A","A","B"],["A","A","A","A"]],` +
		`"inputs":{"x":"A"},"completeWithIdentity":true}`,
}

// goldenHashLines renders one "<hash> <case>" line per catalog entry and
// inline case, sorted by case name.
func goldenHashLines(t *testing.T) string {
	t.Helper()
	eng := New()
	var lines []string
	for name, entry := range protocols.Catalog() {
		lines = append(lines, fmt.Sprintf("%s catalog/%s", Hash(entry.Protocol), name))
	}
	for name, body := range inlineHashCases {
		entry, err := eng.Resolve(ProtocolRef{Inline: []byte(body)})
		if err != nil {
			t.Fatalf("inline %s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s inline/%s", Hash(entry.Protocol), name))
	}
	// A builder-made protocol never passes the decoder, so its names may
	// hold raw invalid UTF-8 the encoder itself must replace.
	b := protocol.NewBuilder("raw\xffname\u2028")
	q := b.AddState("s\x80<", 1)
	b.AddInput("in\xc3", q)
	lines = append(lines, fmt.Sprintf("%s builder/invalid-utf8", Hash(b.CompleteWithIdentity().MustBuild())))
	slices.SortFunc(lines, func(a, b string) int {
		return strings.Compare(a[strings.IndexByte(a, ' '):], b[strings.IndexByte(b, ' '):])
	})
	return strings.Join(lines, "\n") + "\n"
}

// TestContentHashGolden pins engine.Hash byte for byte: disk artifact keys
// and cluster routing are derived from it, so any change to the canonical
// encoding orphans every stored artifact. The golden file lists the hash
// of every catalog protocol and of inline protocols covering the
// encoder's escaping and ordering rules.
func TestContentHashGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "content_hashes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenHashLines(t); got != string(want) {
		t.Fatalf("content hashes changed; got:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkResolveInline times inline-protocol admission, the work every
// /v1/analyze request carrying its own protocol pays before any analysis:
// decoding the JSON, building the protocol and hashing its canonical form.
// The bodies are flock-of-birds(10..12), the protocols of perfbench's miss
// and disk workloads.
func BenchmarkResolveInline(b *testing.B) {
	for _, eta := range []int64{10, 11, 12} {
		data, err := protocols.FlockOfBirds(eta).Protocol.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("flock(%d)", eta), func(b *testing.B) {
			eng := New()
			ref := ProtocolRef{Inline: data}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := eng.resolveHashed(ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
