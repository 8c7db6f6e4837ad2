package reach

import (
	"testing"

	"repro/internal/protocols"
)

// TestInputCount: inputCount agrees with enumerate over small ranges and
// stops at its ceiling on ranges too large to enumerate.
func TestInputCount(t *testing.T) {
	for d := 1; d <= 4; d++ {
		for lo := int64(0); lo <= 5; lo++ {
			for hi := lo - 1; hi <= 9; hi++ {
				want := 0
				for s := lo; s <= hi; s++ {
					want += len(enumerate(d, s))
				}
				if got := inputCount(d, lo, hi, 1<<20); got != want {
					t.Errorf("inputCount(%d, %d, %d) = %d, enumerate gives %d", d, lo, hi, got, want)
				}
				if got := inputCount(d, lo, hi, 7); got != min(want, 7) {
					t.Errorf("inputCount(%d, %d, %d) capped at 7 = %d, want %d", d, lo, hi, got, min(want, 7))
				}
			}
		}
	}
	for _, d := range []int{1, 2, 5, 128} {
		if got := inputCount(d, 2, 1<<62, maxPresized); got != maxPresized {
			t.Errorf("inputCount(%d, 2, 2^62) = %d, want the ceiling %d", d, got, maxPresized)
		}
	}
}

// TestVerifyRangePresized: a verify report's results fill the slice
// allocated for them exactly.
func TestVerifyRangePresized(t *testing.T) {
	e := protocols.Majority()
	rep, err := VerifyRange(e.Protocol, e.Pred, 2, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) == 0 || cap(rep.Results) != len(rep.Results) {
		t.Fatalf("%d results in a slice of capacity %d", len(rep.Results), cap(rep.Results))
	}
}
