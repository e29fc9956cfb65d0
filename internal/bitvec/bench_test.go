package bitvec

import (
	"math/rand"
	"testing"
)

func benchVector(n, ones int) *Vector {
	rng := rand.New(rand.NewSource(1))
	v := New(n)
	for i := 0; i < ones; i++ {
		v.Set(rng.Intn(n) + 1)
	}
	return v
}

func BenchmarkRank(b *testing.B) {
	v := benchVector(1<<16, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.Rank(i%(1<<16) + 1)
	}
}

func BenchmarkCountRange(b *testing.B) {
	v := benchVector(1<<16, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo := i%(1<<15) + 1
		_ = v.CountRange(lo, lo+1<<14)
	}
}

func BenchmarkSegmentWords(b *testing.B) {
	v := benchVector(1<<16, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = v.SegmentWords(1, 1<<12)
	}
}

// BenchmarkRanks is BenchmarkRank through a Ranks table, the way a
// committee member ranks every identity it distributes: one table per
// list, then O(1) per query.
func BenchmarkRanks(b *testing.B) {
	v := benchVector(1<<16, 1<<12)
	ranks := v.Ranks()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ranks.Rank(i%(1<<16) + 1)
	}
}
