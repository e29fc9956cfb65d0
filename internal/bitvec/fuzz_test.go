package bitvec

import "testing"

// FuzzOperations replays a byte-encoded operation sequence against a
// naive boolean-slice reference model. Each byte pair encodes an
// operation (set / clear / replace-range) and its position; after the
// sequence, every rank (Rank and the Ranks table), count and segment
// query must match the model — SegmentWords over a (lo, hi) pair drawn
// from each operation's bytes.
func FuzzOperations(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3})
	f.Add([]byte{0xff, 0x01, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 97
		v := New(n)
		ref := make([]bool, n+1)
		for i := 0; i+1 < len(ops); i += 2 {
			pos := int(ops[i])%n + 1
			switch ops[i+1] % 3 {
			case 0:
				v.Set(pos)
				ref[pos] = true
			case 1:
				v.Clear(pos)
				ref[pos] = false
			default:
				hi := pos + int(ops[i+1]/3)%(n-pos+1)
				ones := int(ops[i+1]) % (hi - pos + 2)
				v.ReplaceRange(pos, hi, ones)
				for p := pos; p <= hi; p++ {
					ref[p] = ones > 0
					if ones > 0 {
						ones--
					}
				}
			}
		}
		total := 0
		ranks := v.Ranks()
		for pos := 1; pos <= n; pos++ {
			if v.Get(pos) != ref[pos] {
				t.Fatalf("bit %d: got %v want %v", pos, v.Get(pos), ref[pos])
			}
			if got := v.Rank(pos); got != total {
				t.Fatalf("rank(%d): got %d want %d", pos, got, total)
			}
			if got := ranks.Rank(pos); got != total {
				t.Fatalf("ranks table at %d: got %d want %d", pos, got, total)
			}
			if ref[pos] {
				total++
			}
		}
		if v.Count() != total {
			t.Fatalf("count: got %d want %d", v.Count(), total)
		}
		mid := n / 2
		lo := 0
		for p := 1; p <= mid; p++ {
			if ref[p] {
				lo++
			}
		}
		if got := v.CountRange(1, mid); got != lo {
			t.Fatalf("countRange(1,%d): got %d want %d", mid, got, lo)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int(ops[i])%n+1, int(ops[i+1])%n+1
			checkSegment(t, v, ref, min(a, b), max(a, b))
		}
		checkSegment(t, v, ref, 1, n)
	})
}

// checkSegment compares SegmentWords(lo, hi) bit for bit with the
// boolean model: segment bit i is position lo+i, and every bit past the
// segment's length is zero.
func checkSegment(t *testing.T, v *Vector, ref []bool, lo, hi int) {
	t.Helper()
	words := v.SegmentWords(lo, hi)
	length := hi - lo + 1
	if len(words) != (length+63)/64 {
		t.Fatalf("SegmentWords(%d,%d): %d words for %d bits", lo, hi, len(words), length)
	}
	for i := 0; i < 64*len(words); i++ {
		got := words[i/64]>>(i%64)&1 == 1
		if want := i < length && ref[lo+i]; got != want {
			t.Fatalf("SegmentWords(%d,%d) bit %d: got %v want %v", lo, hi, i, got, want)
		}
	}
}
