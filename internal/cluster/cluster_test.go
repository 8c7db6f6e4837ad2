package cluster

import (
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// fakeClock drives the coordinator's lazy lease expiry in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testCoordinator(clk *fakeClock) *Coordinator {
	return NewCoordinator(CoordinatorOptions{TTL: 10 * time.Second, Now: clk.now})
}

func TestMembershipLifecycle(t *testing.T) {
	clk := newFakeClock()
	c := testCoordinator(clk)

	w := c.Register("w1", "http://127.0.0.1:1")
	if w.Epoch != 1 || w.State != StateActive {
		t.Fatalf("register: %+v", w)
	}
	c.Register("w2", "http://127.0.0.1:2")
	if got := len(c.Live()); got != 2 {
		t.Fatalf("live: %d, want 2", got)
	}

	// Heartbeats renew the lease.
	clk.advance(8 * time.Second)
	if _, err := c.Heartbeat("w1", false); err != nil {
		t.Fatal(err)
	}
	clk.advance(8 * time.Second) // w2's lease (no heartbeat) is now 16s old
	live := c.Live()
	if len(live) != 1 || live[0].ID != "w1" {
		t.Fatalf("after expiry: %+v", live)
	}

	// The expired worker's heartbeat is rejected — it must re-register.
	if _, err := c.Heartbeat("w2", false); err != ErrUnknownWorker {
		t.Fatalf("expired heartbeat: %v, want ErrUnknownWorker", err)
	}
	w2 := c.Register("w2", "http://127.0.0.1:2")
	if w2.Epoch != 2 {
		t.Fatalf("rejoin should bump epoch: %+v", w2)
	}

	// Drain: out of Live, still in Members, not Alive.
	if _, err := c.Heartbeat("w1", true); err != nil {
		t.Fatal(err)
	}
	if c.Alive("w1") {
		t.Error("draining worker is not alive")
	}
	if got := len(c.Live()); got != 1 {
		t.Errorf("live after drain: %d, want 1", got)
	}
	if got := len(c.Members()); got != 2 {
		t.Errorf("members after drain: %d, want 2", got)
	}

	// A draining worker that re-registers is back in rotation.
	c.Register("w1", "http://127.0.0.1:1")
	if !c.Alive("w1") {
		t.Error("re-registered worker should be active")
	}

	// Deregister removes immediately.
	c.Deregister("w1")
	if c.Alive("w1") {
		t.Error("deregistered worker is not alive")
	}
}

func TestRouteStability(t *testing.T) {
	workers := []Worker{{ID: "a"}, {ID: "b"}, {ID: "c"}}
	hashes := []string{"h1", "h2", "h3", "h4", "h5", "h6", "h7", "h8"}

	routed := make(map[string]string)
	for _, h := range hashes {
		w, ok := route(h, workers)
		if !ok {
			t.Fatalf("route(%s) found no worker", h)
		}
		routed[h] = w.ID
	}
	// Deterministic across calls and worker orderings.
	for _, h := range hashes {
		w, _ := route(h, []Worker{{ID: "c"}, {ID: "a"}, {ID: "b"}})
		if w.ID != routed[h] {
			t.Errorf("route(%s) depends on worker order: %s vs %s", h, w.ID, routed[h])
		}
	}
	// Removing one worker only moves the hashes that were routed to it.
	for _, h := range hashes {
		w, ok := route(h, []Worker{{ID: "a"}, {ID: "c"}})
		if !ok {
			t.Fatalf("route(%s) found no survivor", h)
		}
		if routed[h] != "b" && w.ID != routed[h] {
			t.Errorf("route(%s) moved from %s to %s though %s survived", h, routed[h], w.ID, routed[h])
		}
	}
	if _, ok := route("h1", nil); ok {
		t.Error("route with no workers must report not-found")
	}
}

func TestGroupByHashAndChunk(t *testing.T) {
	spec := sweep.Spec{
		Name: "group-test",
		Protocols: []sweep.ProtocolAxis{
			{Spec: "flock:3"},
			{Spec: "flock:4"},
		},
		Kinds: []engine.Kind{engine.KindSimulate, engine.KindStable},
		Sizes: []sweep.Expr{sweep.Lit(6), sweep.Lit(7)},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per protocol: 2 simulate sizes + 1 stable = 3 cells; 6 total.
	if len(cells) != 6 {
		t.Fatalf("grid: %d cells, want 6", len(cells))
	}
	groups := groupByHash(cells, EngineResolver(engine.New()))
	if len(groups) != 2 {
		t.Fatalf("groups: %d, want 2 (one per protocol)", len(groups))
	}
	total := 0
	for _, g := range groups {
		if g.hash == "" {
			t.Error("group has empty hash")
		}
		total += len(g.cells)
		for i := 1; i < len(g.cells); i++ {
			if g.cells[i-1].Index >= g.cells[i].Index {
				t.Errorf("group cells out of order: %d then %d", g.cells[i-1].Index, g.cells[i].Index)
			}
		}
	}
	if total != 6 {
		t.Fatalf("groups cover %d cells, want 6", total)
	}

	tasks := chunk(groups, 2)
	if len(tasks) != 4 {
		t.Fatalf("chunk(2): %d tasks, want 4 (3 cells per group → 2+1)", len(tasks))
	}
	for _, task := range tasks {
		if len(task.cells) == 0 || len(task.cells) > 2 {
			t.Errorf("task has %d cells, want 1..2", len(task.cells))
		}
	}
}

func TestGroupByHashProtocolFree(t *testing.T) {
	spec := sweep.Spec{
		Name:   "bounds-test",
		Params: []sweep.ParamRange{{From: 3, To: 6}},
		Kinds:  []engine.Kind{engine.KindBounds},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	groups := groupByHash(cells, EngineResolver(engine.New()))
	// One group per state count: a pure bounds sweep still spreads out.
	if len(groups) != 4 {
		t.Fatalf("protocol-free groups: %d, want 4", len(groups))
	}
}
