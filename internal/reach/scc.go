package reach

import "slices"

// SCCInfo is the strongly-connected-component decomposition of a Graph.
type SCCInfo struct {
	// Comp maps node index → component id. Components are numbered in
	// reverse topological order: every edge goes from a component to one
	// with a smaller or equal id, so component 0 is a bottom component.
	Comp []int32
	// NumComps is the number of components.
	NumComps int
	// Bottom[c] reports whether component c has no edges leaving it; fair
	// executions end up in (and fully cover) exactly the bottom components.
	Bottom []bool
	// Members lists the node indices of each component.
	Members [][]int32
}

// sccScratch is Tarjan's working memory, owned by a Graph so that the
// SCC computations of a reused graph (one per input of a verify range)
// allocate nothing once it has grown to the largest graph.
type sccScratch struct {
	index, low []int32
	onStack    []bool
	stack      []int32 // Tarjan stack
	call       []sccFrame
	// comp and bottom are the result: node → component id, and whether
	// each component is bottom (same conventions as SCCInfo).
	comp   []int32
	bottom []bool
}

// sccFrame is one frame of the explicit DFS call stack.
type sccFrame struct {
	v    int32
	next int // next successor position to process
}

// resized returns s with length n, reallocating only when its capacity is
// too small. The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// tarjan computes the strongly connected components into g.scc with an
// iterative Tarjan algorithm (explicit stack; configuration graphs can be
// deep, so recursion is not an option) and returns their number.
func (g *Graph) tarjan() int {
	n := g.Len()
	sc := &g.scc
	const unvisited = -1
	index := resized(sc.index, n)
	low := resized(sc.low, n)
	comp := resized(sc.comp, n)
	onStack := resized(sc.onStack, n)
	for i := range index {
		index[i] = unvisited
	}
	// onStack needs no reset: a completed run pops every node.
	stack, call := sc.stack[:0], sc.call[:0]
	var nextIdx, numComps int32
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], sccFrame{v: int32(root)})
		index[root] = nextIdx
		low[root] = nextIdx
		nextIdx++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if succs := g.Succs(int(v)); f.next < len(succs) {
				w := succs[f.next]
				f.next++
				if index[w] == unvisited {
					index[w] = nextIdx
					low[w] = nextIdx
					nextIdx++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, sccFrame{v: w})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			// Post-processing of v.
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numComps
					if w == v {
						break
					}
				}
				numComps++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				u := call[len(call)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	// A component is bottom iff no edge leaves it.
	bottom := resized(sc.bottom, int(numComps))
	for c := range bottom {
		bottom[c] = true
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Succs(v) {
			if comp[w] != comp[v] {
				bottom[comp[v]] = false
				break
			}
		}
	}
	*sc = sccScratch{index: index, low: low, onStack: onStack, stack: stack, call: call, comp: comp, bottom: bottom}
	return int(numComps)
}

// SCCs computes the strongly connected components of the graph. The result
// is freshly allocated: it stays valid across later SCC computations.
func (g *Graph) SCCs() *SCCInfo {
	numComps := g.tarjan()
	info := &SCCInfo{
		Comp:     slices.Clone(g.scc.comp),
		NumComps: numComps,
		Bottom:   slices.Clone(g.scc.bottom),
		Members:  make([][]int32, numComps),
	}
	for v, c := range info.Comp {
		info.Members[c] = append(info.Members[c], int32(v))
	}
	return info
}

// FairOutput returns the output of every fair execution from the start
// configuration: b if every bottom SCC is a b-consensus for one common b.
// ok is false if some bottom SCC contains a configuration with undefined
// output, mixes outputs, or two bottom SCCs disagree — in all those cases
// the protocol does not converge (or does not converge consistently) on
// this input.
func (g *Graph) FairOutput() (b int, ok bool) {
	g.tarjan()
	comp, bottom := g.scc.comp, g.scc.bottom
	result := -1
	for v, c := range comp {
		if !bottom[c] {
			continue
		}
		ob, ok := g.p.OutputOf(g.Config(v))
		if !ok || (result != -1 && result != ob) {
			return -1, false
		}
		result = ob
	}
	if result == -1 {
		return -1, false
	}
	return result, true
}

// StableFlags returns, for each node, whether its configuration is b-stable:
// every configuration reachable from it (necessarily within this graph,
// since transitions preserve population size) has output b. This is the
// fixed-size restriction of Definition 2, and is computed by propagating
// over the component DAG in topological order (components are numbered in
// reverse topological order, so a forward scan over ids 0,1,... visits
// successors first).
func (g *Graph) StableFlags(b int) []bool {
	info := g.SCCs()
	compStable := make([]bool, info.NumComps)
	// Process components in id order: all successors of a component have
	// smaller ids, hence are already decided.
	for c := 0; c < info.NumComps; c++ {
		stable := true
		for _, v := range info.Members[c] {
			if ob, ok := g.p.OutputOf(g.Config(int(v))); !ok || ob != b {
				stable = false
				break
			}
			for _, w := range g.Succs(int(v)) {
				wc := info.Comp[w]
				if wc != int32(c) && !compStable[wc] {
					stable = false
					break
				}
			}
			if !stable {
				break
			}
		}
		compStable[c] = stable
	}
	out := make([]bool, g.Len())
	for v := range out {
		out[v] = compStable[info.Comp[v]]
	}
	return out
}

// StableConfigs returns the node indices of b-stable configurations,
// i.e. the members of SC_b among reachable configurations.
func (g *Graph) StableConfigs(b int) []int {
	flags := g.StableFlags(b)
	var out []int
	for i, f := range flags {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// FirstStable returns the index of the first (in BFS order, hence via a
// shortest path) b-stable configuration for either b, together with its
// output. ok is false if no stable configuration is reachable.
func (g *Graph) FirstStable() (idx, b int, ok bool) {
	s0 := g.StableFlags(0)
	s1 := g.StableFlags(1)
	for i := 0; i < g.Len(); i++ {
		if s0[i] {
			return i, 0, true
		}
		if s1[i] {
			return i, 1, true
		}
	}
	return 0, -1, false
}
