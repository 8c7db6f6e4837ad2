package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// request is one call to ppserve: an endpoint, a body, and the check its
// answer must pass.
type request struct {
	path string
	body []byte
	// check validates a complete 200 response body and returns the
	// engine-side time, in milliseconds, that ppserve reported for it.
	check func(body []byte) (engineMillis float64, err error)
}

// workload is one seeded traffic mix against one ppserve configuration,
// sent by one closed-loop client: each request goes out only after the
// previous answer has been read. BENCHMARK.json at the repository root
// says why each workload was chosen.
type workload struct {
	// args returns the ppserve flags beyond the listen address; dir is an
	// empty directory private to one set-up round.
	args func(dir string) []string
	// warm lists the set-up requests that bring the server to the state
	// the workload measures (filled caches, warm connections).
	warm func(seed uint64) []request
	// next returns the seed's stream of measured requests, indexed from 0.
	next func(seed uint64) func(i int64) request
}

var workloads = map[string]workload{
	"miss": {
		args: func(string) []string { return nil },
		warm: func(seed uint64) []request {
			reqs := make([]request, 8)
			for j := range reqs {
				eta := missEtas[j%len(missEtas)]
				reqs[j] = stableRequest(fmt.Sprintf("miss-%d-warm-%d", seed, j), eta)
			}
			return reqs
		},
		next: func(seed uint64) func(i int64) request {
			return func(i int64) request {
				eta := missEtas[(uint64(i)+seed)%uint64(len(missEtas))]
				return stableRequest(fmt.Sprintf("miss-%d-%d", seed, i), eta)
			}
		},
	},
	"disk": {
		args: func(dir string) []string { return []string{"-artifact-dir", dir + "/artifacts"} },
		warm: func(seed uint64) []request {
			reqs := make([]request, diskKeys)
			for k := range reqs {
				reqs[k] = diskRequest(seed, k)
			}
			return reqs
		},
		next: func(seed uint64) func(i int64) request {
			return func(i int64) request { return diskRequest(seed, int(i%diskKeys)) }
		},
	},
	"sweep": {
		args: func(string) []string { return []string{"-sweep-workers", "1"} },
		warm: func(seed uint64) []request {
			return []request{sweepRequest(fmt.Sprintf("sweep-%d-warm", seed), seed)}
		},
		next: func(seed uint64) func(i int64) request {
			return func(i int64) request {
				return sweepRequest(fmt.Sprintf("sweep-%d-%d", seed, i), mix(seed, uint64(i)))
			}
		},
	},
}

// missEtas are the flock thresholds the miss workload cycles through, in
// equal shares, so every seed measures the same mix of fixpoint sizes. An
// odd count keeps the median inside one size class rather than on the
// gap between two.
var missEtas = []int{10, 11, 12}

// diskKeys exceeds the engine's 256-entry artifact cache, so cycling
// through the keys in order evicts each one before it comes round again.
const diskKeys = 288

// diskEtas are the flock thresholds of the disk keys, in equal shares.
var diskEtas = []int{10, 11, 12}

func diskRequest(seed uint64, k int) request {
	return stableRequest(fmt.Sprintf("disk-%d-%d", seed, k), diskEtas[k%len(diskEtas)])
}

// stableRequest asks for the stable analysis of flock-of-birds(η) sent
// inline under the given name.
func stableRequest(name string, eta int) request {
	return request{path: "/v1/analyze", body: analyzeBody("stable", inlineRef(name, eta)), check: checkStable(eta)}
}

func analyzeBody(kind, protocolRef string) []byte {
	return []byte(fmt.Sprintf(`{"kind":%q,"protocol":%s}`, kind, protocolRef))
}

// inlineRef is a protocol reference carrying flock-of-birds(η) inline
// under the given name. The name is part of the protocol's content hash,
// so a fresh name is a cache key ppserve has never seen, with the cost of
// analyzing flock:η.
func inlineRef(name string, eta int) string {
	return `{"inline":{"name":` + strconv.Quote(name) + flockTail(eta) + `}}`
}

// flockTail renders the JSON of flock-of-birds(η) after its name field:
// states 0..η (only η outputs 1), input x entering state 1, and for each
// pair a ≤ c the transition a,c ↦ 0,a+c below the threshold and
// a,c ↦ η,η at or above it. It is the registry's flock:η.
func flockTail(eta int) string {
	var b strings.Builder
	b.WriteString(`,"states":[`)
	for v := 0; v <= eta; v++ {
		if v > 0 {
			b.WriteByte(',')
		}
		out := 0
		if v == eta {
			out = 1
		}
		fmt.Fprintf(&b, `{"name":"%d","output":%d}`, v, out)
	}
	b.WriteString(`],"transitions":[`)
	first := true
	for a := 0; a <= eta; a++ {
		for c := a; c <= eta; c++ {
			if !first {
				b.WriteByte(',')
			}
			first = false
			if a+c < eta {
				fmt.Fprintf(&b, `["%d","%d","0","%d"]`, a, c, a+c)
			} else {
				fmt.Fprintf(&b, `["%d","%d","%d","%d"]`, a, c, eta, eta)
			}
		}
	}
	b.WriteString(`],"inputs":{"x":"1"}`)
	return b.String()
}

// stableSizes is the part of a stable result that is fixed by the
// protocol alone: the sizes of the minimal bases and the measured norm.
// Fixpoint round and frontier counts are left out, because a faster
// algorithm may legitimately change them.
type stableSizes struct {
	Basis0  int   `json:"basis0"`
	Basis1  int   `json:"basis1"`
	SCBasis int   `json:"scBasis"`
	Norm    int64 `json:"norm"`
}

// flockStable is the expected stable result of flock-of-birds(η): the
// output-0 basis has p(η−1) elements, p being the partition function, the
// output-1 basis has one, SC's basis is their union, and the norm is η−1.
// These closed forms hold for every η the workloads use (2 ≤ η ≤ 16 was
// compared against ppserve's analysis of the registry protocols).
func flockStable(eta int) stableSizes {
	b0 := partitions(eta - 1)
	return stableSizes{Basis0: b0, Basis1: 1, SCBasis: b0 + 1, Norm: int64(eta - 1)}
}

// partitions returns the number of integer partitions of n.
func partitions(n int) int {
	p := make([]int, n+1)
	p[0] = 1
	for part := 1; part <= n; part++ {
		for m := part; m <= n; m++ {
			p[m] += p[m-part]
		}
	}
	return p[n]
}

type analyzeResult struct {
	ElapsedMillis float64      `json:"elapsedMillis"`
	Stable        *stableSizes `json:"stable"`
}

func checkStable(eta int) func([]byte) (float64, error) {
	return func(body []byte) (float64, error) {
		var r analyzeResult
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("decoding analyze result: %w", err)
		}
		if r.Stable == nil {
			return 0, fmt.Errorf("flock(%d): result has no stable payload", eta)
		}
		if want := flockStable(eta); *r.Stable != want {
			return 0, fmt.Errorf("flock(%d): stable %+v, want %+v", eta, *r.Stable, want)
		}
		return r.ElapsedMillis, nil
	}
}

// The sweep grid: flock:N for N in [sweepFrom, sweepTo], each simulated
// (4 replicas) and verified at sizes N−1, N+1 and 2N, plus its stable
// analysis — 4 × (3 + 3 + 1) = 28 cells.
const (
	sweepFrom  = 4
	sweepTo    = 7
	sweepCells = (sweepTo - sweepFrom + 1) * 7
)

func sweepRequest(name string, simSeed uint64) request {
	body := fmt.Sprintf(`{"name":%q,"protocols":[{"spec":"flock:{N}"}],"params":[{"from":%d,"to":%d}],`+
		`"kinds":["simulate","verify","stable"],"sizes":["{N}-1","{N}+1","{N}*2"],"options":{"seed":%d,"runs":4}}`,
		name, sweepFrom, sweepTo, simSeed)
	return request{path: "/v1/sweep", body: []byte(body), check: checkSweep}
}

type sweepRow struct {
	Type string `json:"type"`
	Cell *struct {
		Kind   string `json:"kind"`
		Param  *int64 `json:"param"`
		Size   int64  `json:"size"`
		OK     bool   `json:"ok"`
		Error  string `json:"error"`
		Result *struct {
			Stable     *stableSizes `json:"stable"`
			Simulation *struct {
				Converged bool `json:"converged"`
				Output    int  `json:"output"`
			} `json:"simulation"`
			Verification *struct {
				AllOK bool `json:"allOK"`
			} `json:"verification"`
		} `json:"result"`
	} `json:"cell"`
	Summary *struct {
		TotalCells int     `json:"totalCells"`
		Completed  int     `json:"completed"`
		Failed     int     `json:"failed"`
		WallMillis float64 `json:"wallMillis"`
	} `json:"summary"`
	Error string `json:"error"`
}

// checkSweep validates a sweep stream: every cell succeeded with the
// right answer (a simulation outputs 1 exactly when size ≥ N, every
// verification passes, every stable analysis has flock(N)'s bases), and
// the summary accounts for all cells. It returns the sweep's engine-side
// wall time.
func checkSweep(body []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	cells := 0
	for sc.Scan() {
		var row sweepRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return 0, fmt.Errorf("decoding sweep row: %w", err)
		}
		switch {
		case row.Type == "cell" && row.Cell != nil:
			cells++
			if err := checkCell(row); err != nil {
				return 0, err
			}
		case row.Type == "summary" && row.Summary != nil:
			s := row.Summary
			if s.TotalCells != sweepCells || s.Completed != sweepCells || s.Failed != 0 || cells != sweepCells {
				return 0, fmt.Errorf("sweep summary %+v after %d cell rows, want %d completed cells", *s, cells, sweepCells)
			}
			return s.WallMillis, nil
		default:
			return 0, fmt.Errorf("unexpected sweep row %q: %s", row.Type, row.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading sweep stream: %w", err)
	}
	return 0, fmt.Errorf("sweep stream ended after %d cells without a summary", cells)
}

func checkCell(row sweepRow) error {
	c := row.Cell
	if !c.OK || c.Result == nil || c.Param == nil {
		return fmt.Errorf("sweep cell %s failed: %s", c.Kind, c.Error)
	}
	eta := *c.Param
	r := c.Result
	switch c.Kind {
	case "simulate":
		want := 0
		if c.Size >= eta {
			want = 1
		}
		if r.Simulation == nil || !r.Simulation.Converged || r.Simulation.Output != want {
			return fmt.Errorf("simulate flock:%d size %d: %+v, want converged output %d", eta, c.Size, r.Simulation, want)
		}
	case "verify":
		if r.Verification == nil || !r.Verification.AllOK {
			return fmt.Errorf("verify flock:%d up to size %d did not pass", eta, c.Size)
		}
	case "stable":
		if want := flockStable(int(eta)); r.Stable == nil || *r.Stable != want {
			return fmt.Errorf("stable flock:%d: %+v, want %+v", eta, r.Stable, want)
		}
	default:
		return fmt.Errorf("unexpected sweep cell kind %q", c.Kind)
	}
	return nil
}

// mix derives the i-th pseudo-random value of a seed's stream
// (SplitMix64), so request i is the same whichever client sends it.
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
