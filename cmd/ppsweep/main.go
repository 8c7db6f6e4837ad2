// Command ppsweep executes a declarative scenario sweep — a cartesian grid
// of protocols × predicate parameters × population sizes × analysis kinds —
// and emits one output row per completed cell, incrementally, as CSV or
// NDJSON ready for plotting.
//
// Usage:
//
//	ppsweep -spec sweep.json                  # NDJSON rows to stdout
//	ppsweep -spec sweep.json -format csv      # CSV rows to stdout
//	ppsweep -spec - -workers 8 < sweep.json   # spec from stdin, 8 workers
//	ppsweep -spec sweep.json -cluster http://coordinator:8080
//
// The spec format is documented in docs/api.md (the same document POST
// /v1/sweep accepts); examples/sweep holds a runnable flock-of-birds
// threshold sweep. Rows stream in grid order and carry the cell's grid
// index, so interrupted output is still attributable; the aggregate
// summary goes to stderr, keeping stdout machine-readable.
//
// With -cluster the sweep executes remotely: the spec is POSTed to the
// coordinator's /v1/sweep and the streamed rows are re-emitted locally, so
// output is identical in shape whether the grid ran in-process or fanned
// out across a worker fleet. -canonical emits the deterministic comparison
// form instead — each cell row as it arrives with volatile fields
// (timings, cache flags) zeroed, then a canonical summary row — which is
// byte-identical between a local run and a cluster run of the same spec;
// a cell arriving out of grid order fails the command.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/sweep"
)

func main() { cli.Main("ppsweep", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("ppsweep", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "sweep spec file (JSON; \"-\" for stdin)")
		format   = fs.String("format", "ndjson", "output format: ndjson or csv")
		workers  = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "overall sweep deadline (0 = none)")
		quiet    = fs.Bool("quiet", false, "suppress the stderr summary")
		cluster  = fs.String("cluster", "", "coordinator base URL: run the sweep remotely via POST /v1/sweep")
		canon    = fs.Bool("canonical", false, "emit canonical rows: grid-ordered cells with volatile fields zeroed, then a canonical summary row (ndjson only; byte-comparable across local and cluster runs; fails on a cell out of grid order)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("missing -spec (a JSON sweep spec file, or - for stdin)")
	}
	var (
		data []byte
		err  error
	)
	if *specPath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*specPath)
	}
	if err != nil {
		return err
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var emit func(sweep.CellResult) error
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	switch {
	case *canon:
		if *format != "ndjson" {
			return fmt.Errorf("-canonical requires -format ndjson")
		}
		last := -1
		emit = func(cr sweep.CellResult) error {
			if cr.Index <= last {
				return fmt.Errorf("cell %d streamed after cell %d: not in grid order", cr.Index, last)
			}
			last = cr.Index
			c := sweep.CanonicalCell(cr)
			_, err := os.Stdout.Write(sweep.AppendRow(nil, sweep.StreamRow{Type: "cell", Cell: &c}))
			return err
		}
	case *format == "ndjson":
		emit = func(cr sweep.CellResult) error { return enc.Encode(cr) }
	case *format == "csv":
		w := csv.NewWriter(os.Stdout)
		defer w.Flush()
		if err := w.Write(csvHeader); err != nil {
			return err
		}
		emit = func(cr sweep.CellResult) error {
			if err := w.Write(csvRow(cr)); err != nil {
				return err
			}
			w.Flush() // incremental: each row is visible as it completes
			return w.Error()
		}
	default:
		return fmt.Errorf("unknown -format %q (ndjson|csv)", *format)
	}

	var emitErr error
	onCell := func(cr sweep.CellResult) {
		if emitErr == nil {
			emitErr = emit(cr)
		}
	}
	var res *sweep.Result
	if *cluster != "" {
		res, err = runCluster(ctx, strings.TrimSuffix(*cluster, "/"), data, onCell)
	} else {
		res, err = sweep.Run(ctx, engine.New(), spec, sweep.RunOptions{
			Workers: *workers,
			OnCell:  onCell,
			// Every cell already went to stdout; keep only the aggregates.
			DiscardCells: true,
		})
	}
	if emitErr != nil {
		return emitErr
	}
	if *canon && res != nil {
		row := sweep.StreamRow{Type: "summary", Summary: sweep.CanonicalResult(res)}
		if _, cerr := os.Stdout.Write(sweep.AppendRow(nil, row)); cerr != nil {
			return cerr
		}
	}
	if res != nil && !*quiet {
		fmt.Fprintf(os.Stderr, "ppsweep: %s\n", summary(res))
	}
	return err
}

// runCluster executes the sweep on a coordinator: POST the spec, re-emit
// the streamed cell rows, return the summary row's aggregate.
func runCluster(ctx context.Context, base string, spec []byte, onCell func(sweep.CellResult)) (*sweep.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("cluster sweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	res, err := sweep.ReadRows(resp.Body, onCell)
	if err != nil {
		return nil, fmt.Errorf("cluster sweep: %w", err)
	}
	if res == nil {
		return nil, errors.New("cluster sweep: stream ended without a summary row")
	}
	return res, nil
}

// summary renders the aggregate result in one stderr line.
func summary(res *sweep.Result) string {
	s := fmt.Sprintf("%d/%d cells in %s (workers=%d, failed=%d",
		res.Completed, res.TotalCells,
		time.Duration(res.WallMillis*float64(time.Millisecond)).Round(time.Millisecond),
		res.Workers, res.Failed)
	if res.Cancelled {
		s += ", cancelled"
	}
	s += ")"
	if sim := res.Simulation; sim != nil {
		s += fmt.Sprintf("; simulate: %d/%d converged, parallel p50=%.1f p95=%.1f",
			sim.Converged, sim.Cells, sim.ParallelP50, sim.ParallelP95)
	}
	if v := res.Verification; v != nil {
		s += fmt.Sprintf("; verify: %d/%d allOK", v.AllOK, v.Cells)
	}
	if c := res.Certification; c != nil {
		s += fmt.Sprintf("; certify: %d ok, maxA=%d", c.OK, c.MaxA)
	}
	return s
}

// csvHeader names the flattened per-cell columns; kind-specific columns are
// empty for other kinds.
var csvHeader = []string{
	"index", "protocol", "param", "size", "kind", "ok", "error",
	"cacheHit", "elapsedMillis", "states",
	"converged", "output", "interactions", "parallelTime", "meanParallel", "p95Parallel",
	"verifyAllOK", "verifyFailures",
	"certA", "certB", "coverLen1", "coverLen0",
}

// csvRow flattens one cell result into the csvHeader columns.
func csvRow(cr sweep.CellResult) []string {
	row := make([]string, len(csvHeader))
	row[0] = strconv.Itoa(cr.Index)
	row[1] = cr.Protocol
	if cr.Param != nil {
		row[2] = strconv.FormatInt(*cr.Param, 10)
	}
	if cr.Size > 0 {
		row[3] = strconv.FormatInt(cr.Size, 10)
	}
	row[4] = string(cr.Kind)
	row[5] = strconv.FormatBool(cr.OK)
	row[6] = cr.Error
	row[7] = strconv.FormatBool(cr.CacheHit)
	row[8] = strconv.FormatFloat(cr.ElapsedMillis, 'f', 3, 64)
	r := cr.Result
	if r == nil {
		return row
	}
	if r.Protocol != nil {
		row[9] = strconv.Itoa(r.Protocol.States)
	}
	if s := r.Simulation; s != nil {
		row[10] = strconv.FormatBool(s.Converged)
		row[11] = strconv.Itoa(s.Output)
		if est := s.Estimate; est != nil {
			row[14] = strconv.FormatFloat(est.MeanParallel, 'f', 2, 64)
			row[15] = strconv.FormatFloat(est.P95Parallel, 'f', 2, 64)
		} else {
			row[12] = strconv.FormatInt(s.Interactions, 10)
			row[13] = strconv.FormatFloat(s.ParallelTime, 'f', 2, 64)
		}
	}
	if v := r.Verification; v != nil {
		row[16] = strconv.FormatBool(v.AllOK)
		row[17] = strconv.Itoa(len(v.Failures))
	}
	if c := r.Certificate; c != nil {
		row[18] = strconv.FormatInt(c.A, 10)
		row[19] = strconv.FormatInt(c.B, 10)
	}
	if c := r.Cover; c != nil {
		row[20] = strconv.Itoa(c.MaxLen1)
		row[21] = strconv.Itoa(c.MaxLen0)
	}
	return row
}
