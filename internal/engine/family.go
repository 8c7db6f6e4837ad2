package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dioph"
	"repro/internal/protocol"
	"repro/internal/realise"
	"repro/internal/stable"
)

// This file is the family-identity layer of the incremental
// family-parametric analysis. A *family* is a protocol template with one
// integer parameter — "flock:{N}", "binary:{N}" — whose instantiations a
// sweep analyzes at many parameter values. The exact content hash keys the
// artifact cache as before; alongside it the engine maintains a family
// index (template + param → member hash) so that a cache miss on a NEW
// family member can locate its nearest analyzed neighbor and extend that
// neighbor's artifacts (stable.AnalyzeWarm, realise.BasisWarm) instead of
// computing from nothing. The warm paths are proven element-for-element
// identical to cold computation, so the family layer changes provenance
// and cost, never results.
//
// The index itself is persisted under the "family" artifact kind, keyed by
// the hash of the template string, so an engine restarted over a warm
// artifact store can resolve neighbors from runs it never saw.

// FamilyParamToken is the placeholder a family template carries where the
// parameter value goes, matching the sweep grid's parameter token.
const FamilyParamToken = "{N}"

// familyState is the in-memory index of one family's registered members.
type familyState struct {
	// members maps parameter value to the member's protocol content hash.
	members map[int64]string
	// loaded reports whether the durable index was merged in already.
	loaded bool
}

// familyKey returns the store key of a family index: the hex SHA-256 of
// the template string (the store expects hash-shaped keys).
func familyKey(family string) string {
	sum := sha256.Sum256([]byte(family))
	return hex.EncodeToString(sum[:])
}

// familyMemberV1 is one registered member in the durable index.
type familyMemberV1 struct {
	Param int64  `json:"param"`
	Hash  string `json:"hash"`
}

// familyArtifactV1 is version 1 of the durable family-index encoding.
type familyArtifactV1 struct {
	V       int              `json:"v"`
	Family  string           `json:"family"`
	Members []familyMemberV1 `json:"members"`
}

// SetIncremental enables or disables the family warm paths (enabled by
// default). Disabled, every family member computes from scratch exactly as
// if no family were declared — the switch the differential suite and the
// from-scratch bench baseline flip. Member registration continues either
// way, so flipping incremental back on sees the members analyzed while it
// was off.
func (e *Engine) SetIncremental(on bool) {
	e.mu.Lock()
	e.incrementalOff = !on
	e.mu.Unlock()
}

func (e *Engine) incrementalEnabled() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return !e.incrementalOff
}

// famCtx carries a request's family identity into the artifact
// computations, together with the result pointer that receives incremental
// provenance.
type famCtx struct {
	family string
	param  int64
	res    *Result
}

// famCtxOf builds the family context of a request, or nil when the request
// declares no family.
func famCtxOf(req Request, res *Result) *famCtx {
	if req.Family == "" {
		return nil
	}
	return &famCtx{family: req.Family, param: req.FamilyParam, res: res}
}

// validateFamily sanity-checks a request's family declaration: the
// template must contain the parameter token, else it could never have
// produced the member protocols it claims to relate.
func validateFamily(req Request) error {
	if req.Family == "" {
		return nil
	}
	if !strings.Contains(req.Family, FamilyParamToken) {
		return fmt.Errorf("%w: family template %q has no %s token", ErrBadRequest, req.Family, FamilyParamToken)
	}
	return nil
}

// registerFamilyMember records (family, param) → hash in the in-memory
// index and writes the updated index through to the artifact store. Called
// on the request path for every family-declaring request, before the
// artifact computation, so concurrent sweep cells see each other.
func (e *Engine) registerFamilyMember(family string, param int64, hash string) {
	e.mu.Lock()
	fs := e.familyLocked(family)
	changed := fs.members[param] != hash
	fs.members[param] = hash
	var payload []byte
	if changed && e.artstore != nil {
		payload = encodeFamilyLocked(family, fs)
	}
	e.mu.Unlock()
	if payload != nil {
		e.saveArtifact(ArtifactFamily, familyKey(family), func() []byte { return payload })
	}
}

// familyLocked returns the family's in-memory state, creating it and
// merging the durable index on first touch. Caller holds e.mu.
func (e *Engine) familyLocked(family string) *familyState {
	if e.families == nil {
		e.families = make(map[string]*familyState)
	}
	fs := e.families[family]
	if fs == nil {
		fs = &familyState{members: make(map[int64]string)}
		e.families[family] = fs
	}
	if !fs.loaded {
		fs.loaded = true
		if st := e.artstore; st != nil {
			if payload, err := st.Get(ArtifactFamily, familyKey(family)); err == nil && payload != nil {
				var art familyArtifactV1
				if json.Unmarshal(payload, &art) == nil && art.V == 1 && art.Family == family {
					for _, m := range art.Members {
						if _, have := fs.members[m.Param]; !have {
							fs.members[m.Param] = m.Hash
						}
					}
				}
			}
		}
	}
	return fs
}

// encodeFamilyLocked serializes a family index, members in ascending
// parameter order. Caller holds e.mu.
func encodeFamilyLocked(family string, fs *familyState) []byte {
	art := familyArtifactV1{V: 1, Family: family}
	params := make([]int64, 0, len(fs.members))
	for p := range fs.members {
		params = append(params, p)
	}
	sort.Slice(params, func(i, j int) bool { return params[i] < params[j] })
	for _, p := range params {
		art.Members = append(art.Members, familyMemberV1{Param: p, Hash: fs.members[p]})
	}
	payload, err := json.Marshal(art)
	if err != nil {
		return nil
	}
	return payload
}

// FamilyMembers reports the registered (param → hash) members of a family,
// for introspection and tests.
func (e *Engine) FamilyMembers(family string) map[int64]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	fs := e.familyLocked(family)
	out := make(map[int64]string, len(fs.members))
	for p, h := range fs.members {
		out[p] = h
	}
	return out
}

// neighbor is a family member whose artifacts can seed a warm computation.
type neighbor struct {
	family string
	param  int64
	hash   string
	proto  *protocol.Protocol
}

// neighborCandidates lists the registered members of a family other than
// the requesting one, nearest parameter first; ties prefer the lower
// parameter (sweeps run families in ascending parameter order, so the
// lower neighbor is the one most likely already complete).
func (e *Engine) neighborCandidates(family string, param int64, selfHash string) []neighbor {
	e.mu.Lock()
	fs := e.familyLocked(family)
	out := make([]neighbor, 0, len(fs.members))
	for p, h := range fs.members {
		if p == param || h == selfHash || h == "" {
			continue
		}
		out = append(out, neighbor{family: family, param: p, hash: h})
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		di, dj := absDelta(out[i].param, param), absDelta(out[j].param, param)
		if di != dj {
			return di < dj
		}
		return out[i].param < out[j].param
	})
	return out
}

func absDelta(a, b int64) int64 {
	if a < b {
		return b - a
	}
	return a - b
}

// memberSpec instantiates the family template at a parameter value:
// "flock:{N}" at 7 becomes the registry spec "flock:7". Resolution
// failures just disqualify the neighbor.
func memberSpec(family string, param int64) string {
	return strings.ReplaceAll(family, FamilyParamToken, strconv.FormatInt(param, 10))
}

// resolveNeighbor materializes a candidate's protocol from the family
// template and confirms the content hash matches what was registered — a
// template drift (re-registered constructor, renamed family) makes the
// candidate unusable, never wrong.
func (e *Engine) resolveNeighbor(nb neighbor) (neighbor, bool) {
	entry, err := e.reg.Resolve(memberSpec(nb.family, nb.param))
	if err != nil {
		return nb, false
	}
	h, err := Hash(entry.Protocol)
	if err != nil || h != nb.hash {
		return nb, false
	}
	nb.proto = entry.Protocol
	return nb, true
}

// maxNeighborProbes bounds how many candidate neighbors a warm lookup
// materializes before falling back to a cold computation: each probe may
// hit the registry and the disk store, and a family whose near members
// were all evicted gains little from walking the far ones.
const maxNeighborProbes = 3

// warmStableSeed finds the nearest neighbor with an available stable
// analysis: completed in memory, or restorable from the artifact store.
func (e *Engine) warmStableSeed(ctx context.Context, fam *famCtx, selfHash string) (*stable.Analysis, neighbor, bool) {
	probes := 0
	for _, nb := range e.neighborCandidates(fam.family, fam.param, selfHash) {
		if probes >= maxNeighborProbes {
			break
		}
		probes++
		// Memory first: a completed memo needs no protocol re-resolution.
		e.mu.Lock()
		a := e.cache[nb.hash]
		e.mu.Unlock()
		if a != nil && a.stable.completed() && a.stable.err == nil {
			return a.stable.val, nb, true
		}
		rnb, ok := e.resolveNeighbor(nb)
		if !ok {
			continue
		}
		if prev := e.loadStable(ctx, rnb.proto, rnb.hash); prev != nil {
			return prev, rnb, true
		}
	}
	return nil, neighbor{}, false
}

// warmBasisSeed finds the nearest neighbor with an available realisable
// basis, together with its protocol (realise.BasisWarm needs it for the
// transition mapping) — so unlike warmStableSeed, even a memory hit must
// re-resolve the neighbor protocol.
func (e *Engine) warmBasisSeed(ctx context.Context, fam *famCtx, selfHash string) ([]realise.TransitionMultiset, neighbor, bool) {
	probes := 0
	for _, nb := range e.neighborCandidates(fam.family, fam.param, selfHash) {
		if probes >= maxNeighborProbes {
			break
		}
		probes++
		rnb, ok := e.resolveNeighbor(nb)
		if !ok {
			continue
		}
		e.mu.Lock()
		a := e.cache[rnb.hash]
		e.mu.Unlock()
		if a != nil && a.basis.completed() && a.basis.err == nil {
			return a.basis.val, rnb, true
		}
		if basis, ok := e.loadBasis(ctx, rnb.proto, rnb.hash); ok {
			return basis, rnb, true
		}
	}
	return nil, neighbor{}, false
}

// attachIncremental records warm provenance on the result, if the request
// carries one. First warm artifact wins — a certify request that warms
// both the analysis and the basis reports the analysis (the dominant
// cost).
func (fam *famCtx) attachIncremental(info *IncrementalInfo) {
	if fam.res != nil && fam.res.Incremental == nil {
		fam.res.Incremental = info
	}
}

// computeStableWarm is the family-aware stable computation: with an
// available neighbor it runs the delta path and records provenance and
// metrics; otherwise it degrades to the cold fixpoint (and says so in the
// metrics — a family that never warms is a scheduling bug worth seeing on
// a dashboard).
func (e *Engine) computeStableWarm(ctx context.Context, p *protocol.Protocol, hash string, fam *famCtx) (*stable.Analysis, error) {
	opts := stable.Options{Interrupt: ctx.Done(), Workers: e.stableWorkerCount()}
	if fam == nil {
		return stable.Analyze(p, opts)
	}
	if !e.incrementalEnabled() {
		e.metrics.IncrementalAttempts.WithLabelValues("disabled").Inc()
		return stable.Analyze(p, opts)
	}
	prev, nb, ok := e.warmStableSeed(ctx, fam, hash)
	if !ok {
		e.metrics.IncrementalAttempts.WithLabelValues("cold_stable").Inc()
		return stable.Analyze(p, opts)
	}
	e.metrics.IncrementalAttempts.WithLabelValues("warm_stable").Inc()
	a, stats, err := stable.AnalyzeWarm(p, opts, stable.WarmSeed{Prev: prev})
	if err != nil {
		return nil, err
	}
	e.metrics.IncrementalSeeds.WithLabelValues("imported").Add(float64(stats.ImportedTotal()))
	e.metrics.IncrementalSeeds.WithLabelValues("certified").Add(float64(stats.CertifiedTotal()))
	e.metrics.IncrementalSeeds.WithLabelValues("dropped").Add(float64(stats.DroppedTotal()))
	fam.attachIncremental(&IncrementalInfo{
		Family:    fam.family,
		Param:     fam.param,
		SeedParam: nb.param,
		SeedHash:  nb.hash,
		Mode:      "warm-stable",
		Imported:  stats.ImportedTotal(),
		Certified: stats.CertifiedTotal(),
		Dropped:   stats.DroppedTotal(),
	})
	return a, nil
}

// computeBasisWarm is the family-aware realisable-basis computation,
// mirroring computeStableWarm.
func (e *Engine) computeBasisWarm(ctx context.Context, p *protocol.Protocol, hash string, fam *famCtx) ([]realise.TransitionMultiset, error) {
	opts := dioph.Options{Interrupt: ctx.Done()}
	if fam == nil {
		return realise.Basis(p, opts)
	}
	if !e.incrementalEnabled() {
		e.metrics.IncrementalAttempts.WithLabelValues("disabled").Inc()
		return realise.Basis(p, opts)
	}
	prevBasis, nb, ok := e.warmBasisSeed(ctx, fam, hash)
	if !ok {
		e.metrics.IncrementalAttempts.WithLabelValues("cold_basis").Inc()
		return realise.Basis(p, opts)
	}
	e.metrics.IncrementalAttempts.WithLabelValues("warm_basis").Inc()
	basis, stats, err := realise.BasisWarm(p, opts, realise.WarmSeed{Prev: nb.proto, PrevBasis: prevBasis})
	if err != nil {
		return nil, err
	}
	e.metrics.IncrementalSeeds.WithLabelValues("imported").Add(float64(stats.Mapped))
	e.metrics.IncrementalSeeds.WithLabelValues("certified").Add(float64(stats.Seeds.Accepted))
	e.metrics.IncrementalSeeds.WithLabelValues("dropped").Add(float64(stats.Unmapped + stats.Seeds.Rejected))
	fam.attachIncremental(&IncrementalInfo{
		Family:    fam.family,
		Param:     fam.param,
		SeedParam: nb.param,
		SeedHash:  nb.hash,
		Mode:      "warm-basis",
		Imported:  stats.Mapped,
		Certified: stats.Seeds.Accepted,
		Dropped:   stats.Unmapped + stats.Seeds.Rejected,
	})
	return basis, nil
}
