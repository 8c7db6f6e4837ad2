package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/realise"
	"repro/internal/stable"
	"repro/internal/store"
)

// Artifact kinds under which the disk store files engine artifacts.
const (
	ArtifactStable = "stable"
	ArtifactBasis  = "basis"
)

// SetArtifactStore puts a disk store behind the in-memory artifact cache:
// computed artifacts are written through, and cache misses try the store
// before recomputing. Call before serving traffic.
func (e *Engine) SetArtifactStore(s *store.Store) {
	e.mu.Lock()
	e.artstore = s
	e.mu.Unlock()
}

// ArtifactStore returns the disk store behind the cache, or nil.
func (e *Engine) ArtifactStore() *store.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.artstore
}

// Stable and basis artifacts share one compact binary codec. A payload
// opens with artifactVersion; every integer after it is a varint —
// unsigned (binary.AppendUvarint) for counts, counters and transition
// multisets, zigzag (binary.AppendVarint) for vector coordinates, with ω
// stored as -1, the in-memory sentinel ideal.Omega. A stable payload is
//
//	version | d | iterations₀ iterations₁ | frontier₀ frontier₁ |
//	U_0 basis | U_1 basis | SC_0 | SC_1 | SC_0 ∪ SC_1
//
// where d must equal the protocol's state count and each of the five
// sections is a row count followed by count×d coordinates: the minimal
// bases of U_b in canonical order, then the derived ideal decompositions,
// each ideal as its caps vector. stable.RestoreDerived restores all of it
// verbatim, so a durable hit skips both the fixpoint and the
// complementation. A basis payload is
//
//	version | count | per multiset: pairs, then (transition, count) pairs
//
// in ascending transition order, preserving the basis slice order that
// certify-leaderless consumes.
//
// Decoding is strict, so that every accepted payload re-encodes to the
// same bytes: overlong varints, out-of-range values, unsorted pairs and
// trailing bytes are rejected, and a section's size is checked against
// the bytes that remain before anything is allocated for it. The JSON
// payloads of earlier releases (versions 1 and 2) begin with '{' and fail
// the version check; memoized then deletes and recomputes them like any
// other undecodable entry.
const artifactVersion = 3

// artifactReader consumes a binary artifact payload. The first failure
// sticks: every later read is a no-op returning zero, so decoders check
// the error once, at finish.
type artifactReader struct {
	buf []byte
	err error
}

func newArtifactReader(payload []byte) *artifactReader {
	r := &artifactReader{buf: payload}
	switch {
	case len(payload) == 0:
		r.err = errors.New("empty payload")
	case payload[0] != artifactVersion:
		r.err = fmt.Errorf("unsupported version byte %#x", payload[0])
	default:
		r.buf = payload[1:]
	}
	return r
}

func (r *artifactReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// minimal reports whether an n-byte varint at the head of buf is in its
// shortest form (a multi-byte varint never ends in a zero byte).
func minimal(buf []byte, n int) bool { return n == 1 || (n > 1 && buf[n-1] != 0) }

// varint decodes the zigzag varint at the head of buf; n ≤ 0 when it is
// malformed or not minimal.
func varint(buf []byte) (v int64, n int) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return int64(buf[0]>>1) ^ -int64(buf[0]&1), 1 // most coordinates are small
	}
	if v, n = binary.Varint(buf); !minimal(buf, n) {
		return 0, 0
	}
	return v, n
}

// uvarint reads one unsigned varint no larger than limit.
func (r *artifactReader) uvarint(limit uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if !minimal(r.buf, n) {
		r.fail("malformed varint")
		return 0
	}
	if v > limit {
		r.fail("value %d exceeds %d", v, limit)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads a row count whose rows take at least width bytes each, so
// that whatever is allocated for them is bounded by the bytes remaining.
func (r *artifactReader) count(width int) int {
	n := r.uvarint(math.MaxInt)
	if r.err == nil && n > uint64(len(r.buf)/max(width, 1)) {
		r.fail("count %d overruns the %d bytes remaining", n, len(r.buf))
		return 0
	}
	return int(n)
}

// rows reads one section — a count, then count×d zigzag coordinates, each
// at least lo — into one flat slice and returns row views into it.
func (r *artifactReader) rows(d int, lo int64) []multiset.Vec {
	count := r.count(d)
	if r.err != nil {
		return nil
	}
	flat := make([]int64, count*d)
	buf := r.buf
	for i := range flat {
		v, n := varint(buf)
		if n <= 0 || v < lo {
			r.fail("bad coordinate in row %d", i/d)
			return nil
		}
		flat[i] = v
		buf = buf[n:]
	}
	r.buf = buf
	out := make([]multiset.Vec, count)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// ideals reads one section of ideal caps vectors.
func (r *artifactReader) ideals(d int) []ideal.Ideal {
	rows := r.rows(d, ideal.Omega)
	out := make([]ideal.Ideal, len(rows))
	for i, caps := range rows {
		out[i] = ideal.NewIdeal(caps)
	}
	return out
}

// finish reports the first decode failure, or trailing bytes.
func (r *artifactReader) finish() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return r.err
}

func appendVecs(buf []byte, rows []multiset.Vec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			buf = binary.AppendVarint(buf, v)
		}
	}
	return buf
}

func appendIdeals(buf []byte, ideals []ideal.Ideal) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ideals)))
	for _, id := range ideals {
		for j := 0; j < id.Dim(); j++ {
			buf = binary.AppendVarint(buf, id.Cap(j))
		}
	}
	return buf
}

func encodeStableArtifact(a *stable.Analysis) []byte {
	der := a.Derived()
	buf := []byte{artifactVersion}
	buf = binary.AppendUvarint(buf, uint64(a.Unstable(0).Dim()))
	for b := 0; b <= 1; b++ {
		buf = binary.AppendUvarint(buf, uint64(a.Iterations(b)))
	}
	for b := 0; b <= 1; b++ {
		buf = binary.AppendUvarint(buf, uint64(a.FrontierProcessed(b)))
	}
	buf = appendVecs(buf, a.Unstable(0).MinBasis())
	buf = appendVecs(buf, a.Unstable(1).MinBasis())
	buf = appendIdeals(buf, der.SC[0])
	buf = appendIdeals(buf, der.SC[1])
	return appendIdeals(buf, der.SCAll)
}

func decodeStableArtifact(p *protocol.Protocol, payload []byte) (*stable.Analysis, error) {
	r := newArtifactReader(payload)
	d := p.NumStates()
	if got := r.uvarint(math.MaxInt); r.err == nil && got != uint64(d) {
		r.fail("dimension %d, protocol has %d states", got, d)
	}
	var iters, front [2]int
	for b := range iters {
		iters[b] = int(r.uvarint(math.MaxInt))
	}
	for b := range front {
		front[b] = int(r.uvarint(math.MaxInt))
	}
	basis := [2][]multiset.Vec{r.rows(d, 0), r.rows(d, 0)}
	der := stable.Derived{SC: [2][]ideal.Ideal{r.ideals(d), r.ideals(d)}}
	der.SCAll = r.ideals(d)
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("stable artifact: %w", err)
	}
	return stable.RestoreDerived(p, basis, iters, front, der)
}

func encodeBasisArtifact(basis []realise.TransitionMultiset) []byte {
	buf := []byte{artifactVersion}
	buf = binary.AppendUvarint(buf, uint64(len(basis)))
	var ts []int
	for _, pi := range basis {
		ts = ts[:0]
		for t := range pi {
			ts = append(ts, t)
		}
		slices.Sort(ts)
		buf = binary.AppendUvarint(buf, uint64(len(ts)))
		for _, t := range ts {
			buf = binary.AppendUvarint(buf, uint64(t))
			buf = binary.AppendUvarint(buf, uint64(pi[t]))
		}
	}
	return buf
}

func decodeBasisArtifact(p *protocol.Protocol, payload []byte) ([]realise.TransitionMultiset, error) {
	r := newArtifactReader(payload)
	out := make([]realise.TransitionMultiset, r.count(1))
	nt := uint64(p.NumTransitions())
	for i := range out {
		pairs := r.count(2)
		pi := make(realise.TransitionMultiset, pairs)
		prev := -1
		for range pairs {
			t, c := r.uvarint(math.MaxInt), r.uvarint(math.MaxInt64)
			if r.err != nil {
				break
			}
			if t >= nt || int(t) <= prev || c == 0 {
				r.fail("bad pair [%d, %d]", t, c)
				break
			}
			pi[int(t)] = int64(c)
			prev = int(t)
		}
		if r.err != nil {
			break
		}
		out[i] = pi
	}
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("basis artifact: %w", err)
	}
	return out, nil
}
