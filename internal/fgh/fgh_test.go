package fgh

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/multiset"
)

func bi(v int64) *big.Int { return big.NewInt(v) }

func TestFastGrowingLowLevels(t *testing.T) {
	tests := []struct {
		k    int
		x    int64
		want int64
	}{
		{0, 0, 1}, {0, 7, 8},
		{1, 0, 1}, {1, 3, 7}, {1, 10, 21},
		{2, 0, 1}, {2, 1, 7}, {2, 2, 23}, {2, 3, 63}, {2, 4, 159},
		{3, 0, 1},
		// F_3(1) = F_2(F_2(1)) = F_2(7) = 8·2^8 − 1 = 2047.
		{3, 1, 2047},
	}
	for _, tc := range tests {
		got, err := FastGrowing(tc.k, bi(tc.x))
		if err != nil {
			t.Fatalf("F_%d(%d): %v", tc.k, tc.x, err)
		}
		if got.Cmp(bi(tc.want)) != 0 {
			t.Errorf("F_%d(%d) = %s, want %d", tc.k, tc.x, got, tc.want)
		}
	}
}

func TestFastGrowingRecurrence(t *testing.T) {
	// F_{k+1}(x) = F_k^{x+1}(x) checked explicitly for small values. The
	// ranges are chosen so both sides stay representable (F_3(2) already
	// needs ~4·10^8 bits).
	maxX := map[int]int64{0: 4, 1: 4, 2: 1}
	for k := 0; k <= 2; k++ {
		for x := int64(0); x <= maxX[k]; x++ {
			want := bi(x)
			for i := int64(0); i <= x; i++ {
				var err error
				want, err = FastGrowing(k, want)
				if err != nil {
					t.Fatalf("F_%d iterate: %v", k, err)
				}
			}
			got, err := FastGrowing(k+1, bi(x))
			if err != nil {
				t.Fatalf("F_%d(%d): %v", k+1, x, err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("F_%d(%d) = %s, want %s", k+1, x, got, want)
			}
		}
	}
}

func TestFastGrowingGuards(t *testing.T) {
	if _, err := FastGrowing(-1, bi(0)); err == nil {
		t.Error("negative level must error")
	}
	if _, err := FastGrowing(1, bi(-2)); err == nil {
		t.Error("negative argument must error")
	}
	// F_3(10) is a tower far beyond representation.
	if _, err := FastGrowing(3, bi(10)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("F_3(10) should be too large, got %v", err)
	}
	// F_4 of anything ≥ 2 blows up.
	if _, err := FastGrowing(4, bi(3)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("F_4(3) should be too large, got %v", err)
	}
}

func TestAckermannValues(t *testing.T) {
	tests := []struct {
		m, n, want int64
	}{
		{0, 0, 1}, {0, 5, 6},
		{1, 0, 2}, {1, 7, 9},
		{2, 0, 3}, {2, 4, 11},
		{3, 0, 5}, {3, 3, 61}, {3, 4, 125},
		{4, 0, 13},    // 2↑↑3 − 3 = 16 − 3
		{4, 1, 65533}, // 2↑↑4 − 3
	}
	for _, tc := range tests {
		got, err := Ackermann(tc.m, tc.n)
		if err != nil {
			t.Fatalf("A(%d,%d): %v", tc.m, tc.n, err)
		}
		if got.Cmp(bi(tc.want)) != 0 {
			t.Errorf("A(%d,%d) = %s, want %d", tc.m, tc.n, got, tc.want)
		}
	}
	// A(4,2) = 2^65536 − 3 is representable and has 65536 bits.
	a42, err := Ackermann(4, 2)
	if err != nil {
		t.Fatalf("A(4,2): %v", err)
	}
	if a42.BitLen() != 65536 {
		t.Errorf("A(4,2) has %d bits, want 65536", a42.BitLen())
	}
	// Recurrence spot check: A(m+1, n+1) = A(m, A(m+1, n)).
	for m := int64(0); m <= 2; m++ {
		for n := int64(0); n <= 3; n++ {
			inner, err := Ackermann(m+1, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Ackermann(m, inner.Int64())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Ackermann(m+1, n+1)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("A(%d,%d) = %s violates recurrence (want %s)", m+1, n+1, got, want)
			}
		}
	}
}

func TestAckermannGuards(t *testing.T) {
	if _, err := Ackermann(-1, 0); err == nil {
		t.Error("negative m must error")
	}
	if _, err := Ackermann(4, 3); !errors.Is(err, ErrTooLarge) {
		t.Errorf("A(4,3) should be too large, got %v", err)
	}
	if _, err := Ackermann(5, 1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("A(5,1) should be too large, got %v", err)
	}
	// A(5,0) = A(4,1) is fine.
	v, err := Ackermann(5, 0)
	if err != nil || v.Cmp(bi(65533)) != 0 {
		t.Errorf("A(5,0) = %v, %v; want 65533", v, err)
	}
}

func TestInverseAckermann(t *testing.T) {
	tests := []struct {
		n    int64
		want int64
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {61, 3}, {62, 4},
	}
	for _, tc := range tests {
		if got := InverseAckermann(bi(tc.n)); got != tc.want {
			t.Errorf("α(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// Anything of astronomical-but-representable size has α = 4, since
	// A(4,4) = 2↑↑7 − 3 dwarfs every representable integer.
	huge := new(big.Int).Lsh(bi(1), 1000000)
	if got := InverseAckermann(huge); got != 4 {
		t.Errorf("α(2^1000000) = %d, want 4", got)
	}
}

func TestLongestControlledBadDim1(t *testing.T) {
	// In dimension 1 the longest controlled bad sequence is δ, δ−1, ..., 0:
	// length δ+1.
	for delta := int64(0); delta <= 4; delta++ {
		seq, exact := LongestControlledBad(1, delta, 2_000_000)
		if !exact {
			t.Fatalf("δ=%d: search not exhaustive", delta)
		}
		if int64(len(seq)) != delta+1 {
			t.Errorf("δ=%d: length %d, want %d", delta, len(seq), delta+1)
		}
		if !IsControlledBad(seq, delta) {
			t.Errorf("δ=%d: witness invalid", delta)
		}
	}
}

func TestLongestControlledBadDim2(t *testing.T) {
	// Exact small values in dimension 2 for δ ≤ 1. At δ = 2 the search
	// runs out of budget, so its witness is a lower bound only: it must
	// still be a valid controlled bad sequence, longer than δ = 1's.
	prev := 0
	for delta := int64(0); delta <= 2; delta++ {
		budget := 200_000
		if delta == 2 {
			budget = 50_000
		}
		seq, exact := LongestControlledBad(2, delta, budget)
		if !exact && delta < 2 {
			t.Fatalf("δ=%d: budget %d exhausted", delta, budget)
		}
		if !IsControlledBad(seq, delta) {
			t.Fatalf("δ=%d: witness invalid: %v", delta, seq)
		}
		if len(seq) <= prev {
			t.Fatalf("length must grow with δ: %d then %d", prev, len(seq))
		}
		prev = len(seq)
	}
	// δ=0 in dim 2: control forces ‖v_0‖ ≤ 0, i.e. v_0 = (0,0), which is
	// dominated by every later vector, so it ends the sequence. Length is
	// exactly 1.
	seq, exact := LongestControlledBad(2, 0, 100000)
	if !exact || len(seq) != 1 {
		t.Errorf("dim 2, δ=0: length %d (exact %t), want exactly 1", len(seq), exact)
	}
}

func TestIsControlledBad(t *testing.T) {
	good := []multiset.Vec{{1, 0}, {0, 2}, {0, 1}, {0, 0}}
	if !IsControlledBad(good, 1) {
		t.Error("valid sequence rejected")
	}
	// Control violation: first element too large.
	if IsControlledBad([]multiset.Vec{{5, 0}}, 1) {
		t.Error("control violation accepted")
	}
	// Badness violation: ordered pair.
	if IsControlledBad([]multiset.Vec{{0, 1}, {0, 2}}, 5) {
		t.Error("good pair accepted as bad")
	}
	if !IsControlledBad(nil, 0) {
		t.Error("empty sequence is bad")
	}
}

func TestLongestControlledBadDegenerate(t *testing.T) {
	seq, exact := LongestControlledBad(0, 3, 1000)
	if !exact || seq != nil {
		t.Error("dimension 0 has no sequences")
	}
}
