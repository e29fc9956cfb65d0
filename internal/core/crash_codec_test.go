package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"renaming/internal/interval"
)

// billedStatusBits is the paper's field-width accounting of a status
// (Theorem 1.2's O(log N) bits per message): the ID over [N], two
// interval endpoints over [n], and the d and p counters over
// [ceil(log2 n) + 1]. A response adds the one-bit Done flag; a NEW
// message costs an identity over [n] plus the null flag.
func billedStatusBits(n, bigN int) int {
	logn := bits.Len(uint(n - 1))
	return bits.Len(uint(bigN)) + 2*bits.Len(uint(n)) + 2*bits.Len(uint(logn+1))
}

func billedResponseBits(n, bigN int) int { return billedStatusBits(n, bigN) + 1 }

func billedNewBits(n int) int { return bits.Len(uint(n)) + 1 }

// randomCrashCfg draws a CrashConfig shell (sizes only) for codec tests.
func randomCrashCfg(rng *rand.Rand) CrashConfig {
	n := 1 << (1 + rng.Intn(16)) // 2 .. 65536
	return CrashConfig{N: n * (1 + rng.Intn(8)), IDs: make([]int, n)}
}

// TestCrashCodecRoundTrip is the codec property test: for random
// configurations and random in-domain payloads, encode→decode is the
// identity and the wire form bills exactly the paper's field widths —
// the invariant that keeps golden fingerprints byte-identical.
func TestCrashCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		cfg := randomCrashCfg(rng)
		n := len(cfg.IDs)
		c := newCrashCodec(cfg)
		lo := 1 + rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		s := StatusPayload{
			ID: 1 + rng.Intn(cfg.N),
			I:  interval.New(lo, hi),
			D:  rng.Intn(cfg.TotalRounds() + 1),
			P:  rng.Intn(cfg.TotalRounds() + 1),
		}
		ps := c.encodeStatus(s)
		if want := billedStatusBits(n, cfg.N); ps.Bits() != want {
			t.Fatalf("trial %d: status bills %d bits, want %d", trial, ps.Bits(), want)
		}
		var back StatusPayload
		c.decodeStatus(&ps, &back)
		if back != s {
			t.Fatalf("trial %d: status round-trip %+v != %+v", trial, back, s)
		}

		r := ResponsePayload{ID: s.ID, I: s.I, D: s.D, P: s.P, Done: rng.Intn(2) == 0}
		pr := c.encodeResponse(r)
		if want := billedResponseBits(n, cfg.N); pr.Bits() != want {
			t.Fatalf("trial %d: response bills %d bits, want %d", trial, pr.Bits(), want)
		}
		var rback ResponsePayload
		c.decodeResponse(&pr, &rback)
		if rback != r {
			t.Fatalf("trial %d: response round-trip %+v != %+v", trial, rback, r)
		}
	}
}

// TestCrashLayoutBoundary pins where the two-word layout stops fitting:
// the ID width grows with N, the endpoint width with n, so the largest
// namespaces are rejected from n = 2^24 on, while the default N = 16n
// fits far beyond any simulated n.
func TestCrashLayoutBoundary(t *testing.T) {
	for _, c := range []struct {
		n, bigN int
		fits    bool
	}{
		{1 << 23, math.MaxInt64, true},
		{1 << 24, math.MaxInt64, false},
		{1 << 24, 1<<61 - 1, true},
		{1 << 24, 1 << 61, false},
		{1 << 34, 16 << 34, true},
		{2, 2, true},
	} {
		err := checkCrashLayout(c.n, c.bigN)
		if (err == nil) != c.fits {
			t.Errorf("n=%d N=%d: err = %v, want fits = %v", c.n, c.bigN, err, c.fits)
			continue
		}
		if err != nil {
			msg := err.Error()
			if !strings.Contains(msg, fmt.Sprintf("n=%d ", c.n)) || !strings.Contains(msg, fmt.Sprintf("N=%d ", c.bigN)) {
				t.Errorf("n=%d N=%d: error %q does not name n and N", c.n, c.bigN, msg)
			}
		}
	}
}

// TestByzCodecRoundTrip checks the NEW codec: the round-trip is the
// identity (including identities above n, which Byzantine-inflated
// ranks can produce) and billing is the paper's bitsFor(n)+1.
func TestByzCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 << (1 + rng.Intn(16))
		bigN := n * (1 + rng.Intn(8))
		c := newByzCodec(n, bigN)
		var p NewPayload
		if rng.Intn(4) == 0 {
			p.Null = true
		} else {
			p.NewID = 1 + rng.Intn(bigN)
		}
		pn := c.encodeNew(p)
		if want := billedNewBits(n); pn.Bits() != want {
			t.Fatalf("trial %d: new bills %d bits, want %d", trial, pn.Bits(), want)
		}
		var back NewPayload
		c.decodeNew(&pn, &back)
		if back != p {
			t.Fatalf("trial %d: new round-trip %+v != %+v", trial, back, p)
		}
	}
}

// FuzzCrashCodecRoundTrip fuzzes the response codec (the wider of the
// two layouts) over configuration and field bytes. Any in-domain
// payload that fails to round-trip, or bills other than the paper's
// field widths, fails.
func FuzzCrashCodecRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(7), uint16(3), uint16(9), uint8(1), uint8(1), false)
	f.Add(uint8(16), uint8(7), uint16(65535), uint16(1), uint16(65535), uint8(200), uint8(0), true)
	f.Add(uint8(1), uint8(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, logn, nMul uint8, id, lo, span uint16, d, p uint8, done bool) {
		n := 1 << (1 + int(logn)%16)
		cfg := CrashConfig{N: n * (1 + int(nMul)%8), IDs: make([]int, n)}
		c := newCrashCodec(cfg)
		loV := 1 + int(lo)%n
		hiV := loV + int(span)%(n-loV+1)
		r := ResponsePayload{
			ID:   1 + int(id)%cfg.N,
			I:    interval.New(loV, hiV),
			D:    int(d) % (cfg.TotalRounds() + 1),
			P:    int(p) % (cfg.TotalRounds() + 1),
			Done: done,
		}
		pr := c.encodeResponse(r)
		if want := billedResponseBits(n, cfg.N); pr.Bits() != want {
			t.Fatalf("bills %d bits, want %d", pr.Bits(), want)
		}
		var back ResponsePayload
		c.decodeResponse(&pr, &back)
		if back != r {
			t.Fatalf("round-trip %+v != %+v", back, r)
		}
	})
}
