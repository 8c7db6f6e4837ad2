package serve

import (
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/store"
)

// TestFailpointMatrix drives the journaled, disk-backed sweep path under
// every durability failpoint and asserts the invariant the subsystems
// promise: injected faults degrade (recompute, skip a journal record,
// log) but never corrupt — the canonical output stays byte-identical to
// a fault-free run. Env-gated (PP_FAULT_MATRIX=1) because the global
// failpoint registry cannot be toggled while sibling tests run; CI runs
// it as its own job.
func TestFailpointMatrix(t *testing.T) {
	if os.Getenv("PP_FAULT_MATRIX") == "" {
		t.Skip("set PP_FAULT_MATRIX=1 to run the failpoint matrix")
	}
	baseline := baselineNDJSON(t)

	matrix := []string{
		faultinject.PointJournalAppend + "=every:5",
		faultinject.PointJournalSync + "=every:4",
		faultinject.PointStoreRead + "=every:3",
		faultinject.PointStoreWrite + "=every:3",
		faultinject.PointStoreRead + "=prob:0.3:7",
		faultinject.PointJournalAppend + "=every:6;" + faultinject.PointStoreWrite + "=every:4",
	}
	for _, schedule := range matrix {
		t.Run(schedule, func(t *testing.T) {
			if err := faultinject.Configure(schedule); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disable()

			js, err := journal.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			eng := engine.New()
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			eng.SetArtifactStore(st)
			got := canonicalNDJSON(t, sweepBody(t, NewHandler(eng, Options{Journal: js}), crashSpec))
			if got != baseline {
				t.Fatalf("canonical output corrupted under %s:\n--- want ---\n%s--- got ---\n%s",
					schedule, baseline, got)
			}
			for _, point := range []string{
				faultinject.PointJournalAppend, faultinject.PointJournalSync,
				faultinject.PointStoreRead, faultinject.PointStoreWrite,
			} {
				scheduled := strings.HasPrefix(schedule, point+"=") || strings.Contains(schedule, ";"+point+"=")
				if calls, fired := faultinject.Counts(point); scheduled && calls > 0 && fired == 0 {
					t.Errorf("failpoint %s saw %d calls but never fired", point, calls)
				}
			}
		})
	}
}
