package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func TestAdvertiseURL(t *testing.T) {
	for addr, want := range map[string]string{
		"0.0.0.0:8080":   "http://127.0.0.1:8080",
		"127.0.0.1:9000": "http://127.0.0.1:9000",
		"10.1.2.3:80":    "http://10.1.2.3:80",
	} {
		tcp, err := net.ResolveTCPAddr("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if got := advertiseURL(tcp); got != want {
			t.Errorf("advertiseURL(%s) = %s, want %s", addr, got, want)
		}
	}
}

// TestClusterEndToEndWithDrain boots a real coordinator daemon and a real
// worker daemon on loopback TCP (the same wiring the -coordinator and
// -worker flags build), runs a sweep through the coordinator, then cancels
// the worker's context — the SIGTERM path — and checks it deregistered
// before exiting.
func TestClusterEndToEndWithDrain(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})

	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	cdone := make(chan error, 1)
	go func() {
		cdone <- serveOn(cctx, cln, engine.New(), serve.Options{
			Cluster:         coord,
			ClusterDispatch: cluster.DispatchOptions{RangeCells: 2},
		}, nil)
	}()
	base := fmt.Sprintf("http://%s", cln.Addr())
	client := &http.Client{Timeout: 30 * time.Second}

	// Worker daemon, wired exactly as run() does for -worker -join.
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent := &cluster.Agent{Coordinator: base, Self: advertiseURL(wln.Addr()), ID: "w1"}
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	go func() { _ = agent.Run(actx) }()
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan error, 1)
	drain := func(dctx context.Context) {
		acancel()
		if err := agent.Deregister(dctx); err != nil {
			t.Errorf("deregister: %v", err)
		}
	}
	go func() { wdone <- serveOn(wctx, wln, engine.New(), serve.Options{}, drain) }()

	memberCount := func() int {
		resp, err := client.Get(base + "/v1/cluster/members")
		if err != nil {
			return -1
		}
		defer resp.Body.Close()
		var body struct {
			Workers []cluster.Worker `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return -1
		}
		return len(body.Workers)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("worker registration", func() bool { return memberCount() == 1 })

	// A sweep through the coordinator fans out to the worker.
	spec := `{
	  "name": "e2e",
	  "protocols": [{"spec": "flock:{N}"}],
	  "params": [{"from": 3, "to": 4}],
	  "kinds": ["simulate", "stable"],
	  "sizes": [6],
	  "options": {"seed": 7, "exactOracle": true}
	}`
	resp, err := client.Post(base+"/v1/sweep", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	cells := 0
	sum, err := sweep.ReadRows(resp.Body, func(cr sweep.CellResult) {
		if cr.Index != cells {
			t.Errorf("cell %d arrived at position %d (stream must be grid-ordered)", cr.Index, cells)
		}
		cells++
	})
	if err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if cells != 4 || sum == nil {
		t.Fatalf("got %d cells and summary %+v, want 4 and a summary", cells, sum)
	}
	if sum.Completed != 4 || sum.Failed != 0 {
		t.Errorf("bad summary: %+v", sum)
	}
	// The worker actually served ranges (the coordinator did not fall back
	// to local execution).
	resp2, err := client.Get(base + "/v1/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Workers []cluster.Worker `json:"workers"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(body.Workers) != 1 || body.Workers[0].CellsServed != 4 {
		t.Fatalf("worker stats after sweep: %+v", body.Workers)
	}

	// SIGTERM path: cancelling the worker's context runs the drain hook,
	// which must deregister it from the coordinator before exit.
	wcancel()
	select {
	case err := <-wdone:
		if err != nil {
			t.Fatalf("worker serveOn: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker did not shut down")
	}
	waitFor("worker deregistration", func() bool { return memberCount() == 0 })

	ccancel()
	select {
	case err := <-cdone:
		if err != nil {
			t.Fatalf("coordinator serveOn: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}
