package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazyRandMatchesNewRand locks the LazyRand contract: the Float64
// stream is bit-identical to NewRand's for the same (seed, label), at
// every draw position, across many labels.
func TestLazyRandMatchesNewRand(t *testing.T) {
	for _, label := range []uint64{0, 1, 0x6372617368 << 16, 0x6372617368<<16 | 12345, ^uint64(0)} {
		ref := NewRand(42, label)
		lazy := NewLazyRand(42, label)
		for i := 0; i < 50; i++ {
			want := ref.Float64()
			got := lazy.Float64()
			if got != want {
				t.Fatalf("label %#x draw %d: LazyRand %v != NewRand %v", label, i, got, want)
			}
		}
	}
}

// TestLazyRandInterleaved checks that independent LazyRand values do not
// perturb each other: interleaved draws from two streams match two
// independent reference generators.
func TestLazyRandInterleaved(t *testing.T) {
	refA, refB := NewRand(7, 100), NewRand(7, 200)
	lazyA, lazyB := NewLazyRand(7, 100), NewLazyRand(7, 200)
	for i := 0; i < 30; i++ {
		if got, want := lazyA.Float64(), refA.Float64(); got != want {
			t.Fatalf("stream A draw %d: %v != %v", i, got, want)
		}
		if i%3 == 0 {
			if got, want := lazyB.Float64(), refB.Float64(); got != want {
				t.Fatalf("stream B draw %d: %v != %v", i, got, want)
			}
		}
	}
}

// lazyDrawsChecked spans the O(1) direct-read window (draws 0..272) and
// well past the replay boundary.
const lazyDrawsChecked = 400

// checkLazyAgainstSource asserts that lazy reproduces rand.NewSource(seed)
// output for output over the first draws raw Int63 values.
func checkLazyAgainstSource(t *testing.T, seed int64, lazy LazyRand, draws int) {
	t.Helper()
	ref := rand.NewSource(seed)
	for k := 0; k < draws; k++ {
		if got, want := lazy.int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d draw %d: LazyRand %#x != math/rand %#x", seed, k, got, want)
		}
	}
}

// TestLazyRandSeedNormalisation pins bit-identity across the seed
// normalisation edge cases of rngSource.Seed — negative seeds, the int64
// extremes, multiples of the LCG modulus (which normalise to zero and
// are replaced by 89482311) and 89482311 itself — for every draw up to
// and past the rngTap boundary where LazyRand switches to replay.
func TestLazyRandSeedNormalisation(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		lcgMod, -lcgMod, 2 * lcgMod, lcgMod * (math.MaxInt64 / lcgMod),
		lcgMod - 1, lcgMod + 1, -(lcgMod - 1), lcgZeroS, -lcgZeroS,
		math.MaxInt32, math.MinInt32,
	}
	for _, seed := range seeds {
		checkLazyAgainstSource(t, seed, lazyRandFor(seed), lazyDrawsChecked)
	}
	for _, label := range []uint64{0, 1, 0x6372617368 << 16, ^uint64(0)} {
		seed := DeriveSeed(7, label)
		checkLazyAgainstSource(t, seed, NewLazyRand(7, label), lazyDrawsChecked)
	}
}

// TestLazyRandFloat64PastTap checks the Float64 stream (resample loop
// included) against NewRand across the rngTap boundary.
func TestLazyRandFloat64PastTap(t *testing.T) {
	for _, seed := range []int64{0, -1, 42, math.MinInt64} {
		ref := NewRand(seed, 3)
		lazy := NewLazyRand(seed, 3)
		for k := 0; k < lazyDrawsChecked; k++ {
			if got, want := lazy.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: LazyRand %v != NewRand %v", seed, k, got, want)
			}
		}
	}
}

// FuzzLazyRand asserts bit-identity with
// rand.New(rand.NewSource(DeriveSeed(seed, label))) for an arbitrary
// (seed, label) over up to 400 Float64 draws.
func FuzzLazyRand(f *testing.F) {
	f.Add(int64(0), uint64(0), uint16(lazyDrawsChecked))
	f.Add(int64(-1), ^uint64(0), uint16(274))
	f.Add(int64(math.MinInt64), uint64(1), uint16(273))
	f.Add(int64(math.MaxInt64), uint64(0x6372617368<<16), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, label uint64, draws uint16) {
		n := int(draws) % (lazyDrawsChecked + 1)
		ref := rand.New(rand.NewSource(DeriveSeed(seed, label)))
		lazy := NewLazyRand(seed, label)
		for k := 0; k < n; k++ {
			if got, want := lazy.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d label %#x draw %d: LazyRand %v != math/rand %v", seed, label, k, got, want)
			}
		}
	})
}

// BenchmarkLazyRandDraw measures one node-coin draw the way NewCrashNode
// makes it: a fresh LazyRand and its first Float64.
func BenchmarkLazyRandDraw(b *testing.B) {
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		r := NewLazyRand(1, uint64(i))
		sink += r.Float64()
	}
	_ = sink
}
