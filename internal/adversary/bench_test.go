package adversary

import (
	"math/rand"
	"testing"
)

// BenchmarkMidSendFilter measures one mid-send crash of a broadcasting
// committee member at the crash-killer scale, n = 16384: a fresh
// randomHalfFilter queried once per recipient in ascending order, as the
// engine queries it when it compacts a filtered ToAll.
func BenchmarkMidSendFilter(b *testing.B) {
	const n = 16384
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	kept := 0
	for i := 0; i < b.N; i++ {
		f := randomHalfFilter(rng)
		for to := 0; to < n; to++ {
			if f(to) {
				kept++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/recipient")
	b.ReportMetric(float64(kept)/float64(b.N*n), "keep-frac")
}
