package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/multiset"
	"repro/internal/pump"
	"repro/internal/realise"
)

// fuzzRows builds rows of every type around the fuzzed values: a cell row
// per result kind (plus one without a result), a summary with and without
// its cells, an error row, a done row and a row with every field set.
// Bits of shape choose between the variants encoding/json tells apart:
// nil, empty and filled slices and maps, set and unset flags, a nil Param.
func fuzzRows(s, t string, f, g float64, n int64, shape uint64) []StreamRow {
	on := func(i uint) bool { return shape>>i&1 == 1 }
	ints := func(i uint) []int64 {
		switch shape >> i & 3 {
		case 0:
			return nil
		case 1:
			return []int64{}
		}
		return []int64{n, -n, 0}
	}
	str := func(i uint, v string) string {
		if on(i) {
			return v
		}
		return ""
	}
	num := func(i uint, v float64) float64 {
		if on(i) {
			return v
		}
		return 0
	}
	k := int(n)
	var trace []engine.TracePoint
	var failures []engine.VerifyFailure
	var basis []realise.TransitionMultiset
	var chain *pump.ChainCertificate
	var leaderless *pump.LeaderlessCertificate
	if on(20) {
		trace = []engine.TracePoint{{Interactions: n, Config: s}, {Config: t}}
		failures = []engine.VerifyFailure{{Input: ints(22), Want: on(24), Got: k}, {Input: []int64{n}}}
		basis = []realise.TransitionMultiset{{0: n, 3: 1}, {}}
		chain = &pump.ChainCertificate{A: n, B: 1, Ca: multiset.Vec{n, 0}, Cb: multiset.Vec{n, 1},
			S: map[int]bool{1: true}, PathToCa: []int{0, 2}}
	} else if on(21) {
		trace, failures, basis = []engine.TracePoint{}, []engine.VerifyFailure{}, []realise.TransitionMultiset{}
		leaderless = &pump.LeaderlessCertificate{A: n, B: 2, D: multiset.Vec{1, n}, S: map[int]bool{},
			Theta: realise.TransitionMultiset{1: n}}
	}
	var est *engine.EstimateResult
	if on(25) {
		est = &engine.EstimateResult{Runs: k, Converged: -k, Output: 1, MeanParallel: f, MedianParallel: g,
			P95Parallel: num(26, f), MaxParallel: num(27, g), TotalInteractions: int64(num(28, float64(n))),
			MeanInteractions: num(29, f)}
	}
	var proto *engine.ProtocolInfo
	if on(30) {
		proto = &engine.ProtocolInfo{Name: s, States: k, Transitions: -k, Inputs: 1, Leaderless: on(31),
			Hash: t, Predicate: str(32, s)}
	}
	results := []*engine.Result{
		{Kind: engine.KindSimulate, Protocol: proto, ElapsedMillis: f, CacheHit: on(0),
			Simulation: &engine.SimulationResult{Converged: on(1), Output: k, Interactions: n, ParallelTime: g,
				ConsensusAt: -n, Final: ints(2), FinalFormatted: str(4, t), Trace: trace, Estimate: est}},
		{Kind: engine.KindVerify, Protocol: proto, ElapsedMillis: g,
			Verification: &engine.VerifyResult{Predicate: s, Inputs: k, AllOK: on(5), Failures: failures,
				TotalConfigs: -k, Summary: t}},
		{Kind: engine.KindStable, ElapsedMillis: f, CacheHit: on(6),
			Stable: &engine.StableResult{Basis0: k, Basis1: -k, SCBasis: 1, Iterations0: 2, Iterations1: k,
				Frontier0: 3, Frontier1: 4, Norm: n}},
		{Kind: engine.KindCertifyChain, Certificate: &engine.CertificateResult{Pipeline: s, A: n, B: -n, Chain: chain}},
		{Kind: engine.KindCertifyLeaderless, Certificate: &engine.CertificateResult{Pipeline: t, A: n, Leaderless: leaderless}},
		{Kind: engine.KindSaturate, Saturation: &engine.SaturationResult{Stages: k, Input: n, SequenceLen: -k, Config: ints(7)}},
		{Kind: engine.KindBasis, Basis: &engine.BasisResult{Size: k, Basis: basis}},
		{Kind: engine.KindBounds, Bounds: &engine.BoundsResult{States: n, Transitions: -n, Beta: s, Theta: t, Xi: s,
			XiDeterministic: t, Theorem59: s, Theorem59Simplified: t, BBLowerLeaderless: s, BBLLowerWithLeaders: t}},
		{Kind: engine.KindCover, Cover: &engine.CoverResult{Input: ints(9), MaxLen1: k, MaxLen0: -k}},
		{Kind: engine.Kind(s)},
	}
	var param *int64
	if on(11) {
		param = &n
	}
	cells := make([]CellResult, 0, len(results)+1)
	for i, r := range results {
		cells = append(cells, CellResult{Index: k + i, Protocol: str(12, s), Param: param, Size: int64(num(13, float64(n))),
			Kind: r.Kind, OK: on(14), Error: str(15, t), ElapsedMillis: f, CacheHit: on(16), Result: r})
	}
	cells = append(cells, CellResult{Kind: engine.Kind(t), Error: s, ElapsedMillis: g})
	var byKind map[engine.Kind]*KindStats
	if on(17) {
		byKind = map[engine.Kind]*KindStats{}
		if on(18) {
			byKind[engine.Kind(s)] = &KindStats{Cells: k, OK: 1, Errors: -k, CacheHits: 2}
			byKind[engine.Kind(t)] = nil
			byKind[engine.KindVerify] = &KindStats{Cells: 3}
		}
	}
	sum := &Result{Name: str(19, s), TotalCells: k, Completed: -k, Failed: 1, Cancelled: on(33), Workers: 2,
		WallMillis: g, ByKind: byKind}
	if on(34) {
		sum.Simulation = &SimStats{Cells: k, Converged: 1, InteractionsP50: f, InteractionsP95: g, InteractionsMax: f,
			ParallelP50: g, ParallelP95: f, ParallelMax: g}
		sum.Verification = &VerifyStats{Cells: k, AllOK: -k, Failures: 1}
		sum.Certification = &CertifyStats{Cells: 1, OK: k, MaxA: n}
	}
	withCells := *sum
	if on(35) {
		withCells.Cells = cells
	} else {
		withCells.Cells = []CellResult{}
	}

	rows := make([]StreamRow, 0, len(cells)+5)
	for i := range cells {
		rows = append(rows, StreamRow{Type: "cell", Cell: &cells[i]})
	}
	return append(rows,
		StreamRow{Type: "summary", Summary: sum},
		StreamRow{Type: "summary", Summary: &withCells},
		StreamRow{Type: "error", Error: s},
		StreamRow{Type: "done"},
		StreamRow{Type: t, Cell: &cells[0], Summary: sum, Error: str(36, t)})
}

// FuzzAppendRow holds the hand-written row encoder to its oracle: for rows
// of every type and every result kind, AppendRow appends exactly what
// encoding/json's Encoder writes with HTML escaping off, and appends
// nothing exactly when encoding/json refuses the row.
func FuzzAppendRow(f *testing.F) {
	f.Add("flock:5", "x ≥ 5", 1.5, 0.25, int64(5), uint64(0))
	f.Add("", "", math.Copysign(0, -1), 1e-7, int64(0), ^uint64(0))
	f.Add("x", "y", 0.5, -2.5, int64(2), uint64(1<<25|1<<30))
	f.Add("a<b>&c", "\u2028\u2029", 1e21, 1e-6, int64(-1), uint64(0x5555555555555555))
	f.Add("\xff\xfe bad", "\x00\x01\b\f\n\r\t\x1f\"\\", 123456789.125, 9.999999e20, int64(math.MaxInt64), uint64(0xaaaaaaaaaaaaaaaa))
	f.Add("nan", "nan", math.NaN(), 1.0, int64(3), ^uint64(0))
	f.Add("inf", "-inf", 2.0, math.Inf(1), int64(3), uint64(1<<34|1<<25))
	f.Add("-inf", "", math.Inf(-1), math.Copysign(0, -1), int64(math.MinInt64), uint64(1<<29|1<<25))
	f.Add("é漢字", "é\U0001F600", 5e-324, math.MaxFloat64, int64(7), uint64(1<<20|1<<35|1<<17|1<<18))
	f.Fuzz(func(t *testing.T, s, u string, x, y float64, n int64, shape uint64) {
		for _, row := range fuzzRows(s, u, x, y, n, shape) {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			oracleErr := enc.Encode(row)
			got := AppendRow([]byte("prefix"), row)
			switch {
			case oracleErr != nil && string(got) != "prefix":
				t.Fatalf("%s row: encoding/json refuses it (%v) but AppendRow appended %q", row.Type, oracleErr, got[6:])
			case oracleErr == nil && string(got) != "prefix"+want.String():
				t.Fatalf("%s row:\nAppendRow:     %q\nencoding/json: %q", row.Type, got[6:], want.String())
			}
		}
	})
}
