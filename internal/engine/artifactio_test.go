package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dioph"
	"repro/internal/faultinject"
	"repro/internal/ideal"
	"repro/internal/protocols"
	"repro/internal/realise"
	"repro/internal/stable"
	"repro/internal/store"
)

// catalogEntries returns the builtin catalog in name order, so fuzz inputs
// can select a protocol by a stable index.
func catalogEntries() []protocols.Entry {
	cat := protocols.Catalog()
	names := make([]string, 0, len(cat))
	for name := range cat {
		names = append(names, name)
	}
	slices.Sort(names)
	out := make([]protocols.Entry, len(names))
	for i, name := range names {
		out[i] = cat[name]
	}
	return out
}

// basisEntries are single-input protocols (realisable bases need one
// input variable) whose bases are cheap enough for a seed corpus.
var basisEntries = []protocols.Entry{
	protocols.Parity(), protocols.ModuloIn(3, 1), protocols.FlockOfBirds(3), protocols.BinaryThreshold(5),
}

// allocatedBy reports the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBudget is what decoding a payload may allocate: linear in its
// length. The constant covers the per-row bookkeeping of a restored
// analysis on a one-state protocol (arena, signatures, index, ideal copies
// and SC basis elements), where every payload byte can be a whole row.
func decodeBudget(payload []byte) uint64 { return 1024*uint64(len(payload)) + 64<<10 }

// TestArtifactDecodeRejects pins the strictness that makes every accepted
// payload re-encode to itself, and the size checks that bound allocation
// by the payload length whatever its counts claim.
func TestArtifactDecodeRejects(t *testing.T) {
	p := protocols.Majority().Protocol
	a, err := stable.Analyze(p, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := encodeStableArtifact(a)
	d := uint64(p.NumStates())
	header := func(dim uint64) []byte {
		buf := []byte{artifactVersion}
		buf = binary.AppendUvarint(buf, dim)
		for _, c := range []uint64{1, 1, 0, 0} {
			buf = binary.AppendUvarint(buf, c)
		}
		return buf
	}
	stableCases := map[string][]byte{
		"empty":           nil,
		"legacy json":     []byte(`{"v":2,"basis0":[],"basis1":[],"iterations":[1,1],"frontier":[0,0]}`),
		"version":         append([]byte{artifactVersion + 1}, good[1:]...),
		"dimension":       append(header(d+1), 0, 0, 0, 0, 0),
		"trailing":        append(slices.Clone(good), 0),
		"truncated":       good[:len(good)-1],
		"overlong varint": append(append([]byte{artifactVersion}, 0x80|byte(d), 0x00), good[2:]...),
		"huge count":      binary.AppendUvarint(header(d), math.MaxInt),
		"count overrun":   append(binary.AppendUvarint(header(d), 2), make([]byte, 2*d-1)...),
		"zero iterations": append(append([]byte{artifactVersion}, byte(d), 0), good[3:]...),
		"negative coord":  append(binary.AppendVarint(binary.AppendUvarint(header(d), 1), -1), make([]byte, d-1+4)...),
		"cap below omega": append(binary.AppendVarint(append(header(d), 0, 0, 1), -2), make([]byte, d-1+2)...),
	}
	for name, payload := range stableCases {
		var err error
		if n := allocatedBy(func() { _, err = decodeStableArtifact(p, payload) }); n > decodeBudget(payload) {
			t.Errorf("stable %s: decode allocated %d bytes for a %d-byte payload", name, n, len(payload))
		}
		if err == nil {
			t.Errorf("stable %s: accepted", name)
		}
	}

	bp := protocols.Parity().Protocol
	nt := uint64(bp.NumTransitions())
	basis := func(vals ...uint64) []byte {
		buf := []byte{artifactVersion}
		for _, v := range vals {
			buf = binary.AppendUvarint(buf, v)
		}
		return buf
	}
	basisCases := map[string][]byte{
		"empty":          nil,
		"legacy json":    []byte(`{"v":1,"basis":[[[0,1]]]}`),
		"trailing":       basis(1, 1, 0, 1, 0),
		"transition":     basis(1, 1, nt, 1),
		"zero count":     basis(1, 1, 0, 0),
		"unsorted pairs": basis(1, 2, 1, 1, 0, 1),
		"duplicate":      basis(1, 2, 0, 1, 0, 2),
		"huge multisets": basis(math.MaxInt),
		"huge pairs":     basis(1, math.MaxInt),
		"count range":    basis(1, 1, 0, math.MaxInt64+1),
	}
	for name, payload := range basisCases {
		var err error
		if n := allocatedBy(func() { _, err = decodeBasisArtifact(bp, payload) }); n > decodeBudget(payload) {
			t.Errorf("basis %s: decode allocated %d bytes for a %d-byte payload", name, n, len(payload))
		}
		if err == nil {
			t.Errorf("basis %s: accepted", name)
		}
	}
	if _, err := decodeBasisArtifact(bp, basis(1, 1, 0, 1)); err != nil {
		t.Fatalf("well-formed basis payload rejected: %v", err)
	}
}

// TestLegacyPayloadRecomputed: a JSON payload left in the store by an
// earlier release is a miss — deleted, recomputed, and rewritten in the
// binary format — never an error and never a stale result.
func TestLegacyPayloadRecomputed(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := New()
	want := do(t, ref, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	wantBasis := do(t, ref, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "parity"}})

	a, err := stable.Analyze(protocols.Majority().Protocol, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	caps := func(ideals []ideal.Ideal) [][]int64 {
		out := make([][]int64, len(ideals))
		for i, id := range ideals {
			for j := range id.Dim() {
				out[i] = append(out[i], id.Cap(j))
			}
		}
		return out
	}
	// The version-2 JSON payload earlier releases wrote for this analysis.
	der := a.Derived()
	leg := map[string]any{
		"v":          2,
		"basis0":     a.Unstable(0).MinBasis(),
		"basis1":     a.Unstable(1).MinBasis(),
		"iterations": [2]int{a.Iterations(0), a.Iterations(1)},
		"frontier":   [2]int{a.FrontierProcessed(0), a.FrontierProcessed(1)},
		"sc0":        caps(der.SC[0]),
		"sc1":        caps(der.SC[1]),
		"scAll":      caps(der.SCAll),
	}
	legacy, err := json.Marshal(leg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ArtifactStable, want.Protocol.Hash, legacy); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ArtifactBasis, wantBasis.Protocol.Hash, []byte(`{"v":1,"basis":[[[0,1]]]}`)); err != nil {
		t.Fatal(err)
	}

	hashes := map[string]string{ArtifactStable: want.Protocol.Hash, ArtifactBasis: wantBasis.Protocol.Hash}
	requests := []Request{
		{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}},
		{Kind: KindBasis, Protocol: ProtocolRef{Spec: "parity"}},
	}

	// With store writes failing, the recompute cannot write back, which
	// exposes the delete: both legacy entries are gone afterwards.
	if err := faultinject.Configure(faultinject.PointStoreWrite + "=every:1"); err != nil {
		t.Fatal(err)
	}
	eng := New()
	eng.SetArtifactStore(s)
	got := do(t, eng, requests[0])
	gotBasis := do(t, eng, requests[1])
	faultinject.Disable()
	if n := eng.Computations(); n != 2 {
		t.Fatalf("legacy payloads: %d computations, want 2 (both recomputed)", n)
	}
	if got.CacheHit || gotBasis.CacheHit {
		t.Fatal("legacy payload reported as a cache hit")
	}
	if !jsonEqual(t, got.Stable, want.Stable) || !jsonEqual(t, gotBasis.Basis, wantBasis.Basis) {
		t.Fatal("recomputed results differ from a storeless engine's")
	}
	for kind, hash := range hashes {
		if payload, err := s.Get(kind, hash); err != nil || payload != nil {
			t.Fatalf("legacy %s entry not deleted (payload %q, err %v)", kind, payload, err)
		}
	}

	// With writes working, the recompute writes the binary format back …
	rewrite := New()
	rewrite.SetArtifactStore(s)
	for _, req := range requests {
		do(t, rewrite, req)
	}
	if n := rewrite.Computations(); n != 2 {
		t.Fatalf("rewrite pass: %d computations, want 2", n)
	}
	for kind, hash := range hashes {
		payload, err := s.Get(kind, hash)
		if err != nil || len(payload) == 0 || payload[0] != artifactVersion {
			t.Fatalf("%s entry not rewritten in the binary format (err %v)", kind, err)
		}
	}
	// … which serves the next restart from disk.
	warm := New()
	warm.SetArtifactStore(s)
	for _, req := range requests {
		do(t, warm, req)
	}
	if n := warm.Computations(); n != 0 {
		t.Fatalf("rewritten entries recomputed %d times on restart", n)
	}
}

func jsonEqual(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestDiskHitResultByteIdentical: over the catalog, a stable Result served
// from the disk store marshals to the same bytes as the freshly computed
// one (engine-side wall time aside).
func TestDiskHitResultByteIdentical(t *testing.T) {
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, warm := New(), New()
	cold.SetArtifactStore(s)
	warm.SetArtifactStore(s)
	for _, e := range catalogEntries() {
		inline, err := json.Marshal(e.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Kind: KindStable, Protocol: ProtocolRef{Inline: inline}}
		fresh := do(t, cold, req)
		hit := do(t, warm, req)
		fresh.ElapsedMillis, hit.ElapsedMillis = 0, 0
		if !jsonEqual(t, hit, fresh) {
			t.Fatalf("%s: disk-hit result differs from the computed one", e.Protocol.Name())
		}
	}
	if n := warm.Computations(); n != 0 {
		t.Fatalf("warm engine computed %d artifacts; every request should be a disk hit", n)
	}
}

// FuzzDecodeStableArtifact: arbitrary bytes never panic the stable decoder
// or make it allocate beyond a linear budget, and every payload it accepts
// re-encodes to the same bytes. Seeds are the encodings of the builtin
// catalog; which selects the catalog protocol the payload is decoded for.
func FuzzDecodeStableArtifact(f *testing.F) {
	entries := catalogEntries()
	for i, e := range entries {
		a, err := stable.Analyze(e.Protocol, stable.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), encodeStableArtifact(a))
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		p := entries[int(which)%len(entries)].Protocol
		var a *stable.Analysis
		var err error
		if n := allocatedBy(func() { a, err = decodeStableArtifact(p, payload) }); n > decodeBudget(payload) {
			t.Fatalf("decode allocated %d bytes for a %d-byte payload", n, len(payload))
		}
		if err != nil {
			return
		}
		if again := encodeStableArtifact(a); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in: %x\nout: %x", payload, again)
		}
	})
}

// FuzzDecodeBasisArtifact is FuzzDecodeStableArtifact for the realisable
// basis decoder.
func FuzzDecodeBasisArtifact(f *testing.F) {
	for i, e := range basisEntries {
		basis, err := realise.Basis(e.Protocol, dioph.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), encodeBasisArtifact(basis))
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		p := basisEntries[int(which)%len(basisEntries)].Protocol
		var basis []realise.TransitionMultiset
		var err error
		if n := allocatedBy(func() { basis, err = decodeBasisArtifact(p, payload) }); n > decodeBudget(payload) {
			t.Fatalf("decode allocated %d bytes for a %d-byte payload", n, len(payload))
		}
		if err != nil {
			return
		}
		if again := encodeBasisArtifact(basis); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in: %x\nout: %x", payload, again)
		}
	})
}

// BenchmarkStableArtifactDecode times a disk hit's CPU work — decoding a
// stable artifact and restoring the analysis — on the flock(η) protocols
// of the end-to-end benchmark's miss and disk workloads.
func BenchmarkStableArtifactDecode(b *testing.B) {
	for _, eta := range []int64{10, 11, 12} {
		p := protocols.FlockOfBirds(eta).Protocol
		a, err := stable.Analyze(p, stable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		payload := encodeStableArtifact(a)
		b.Run(fmt.Sprintf("flock%d", eta), func(b *testing.B) {
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := decodeStableArtifact(p, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
