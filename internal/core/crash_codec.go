package core

import (
	"fmt"

	"renaming/internal/bitvec"
	"renaming/internal/interval"
	"renaming/internal/sim"
)

// packedLayoutBits is the width of the two-word wire layout every status
// and response travels in.
const packedLayoutBits = 128

// checkCrashLayout rejects n nodes over the namespace [N] when the
// packed response layout — the wider of the two: the ID over [0, N],
// two interval endpoints over [0, n], the d and p counters over the
// phase budget, and the Done flag — exceeds packedLayoutBits. The first
// such n is 2^24, and only with N ≥ 2^61.
func checkCrashLayout(n, bigN int) error {
	bits := bitsFor(bigN) + 2*bitsFor(n) + 2*bitsFor(totalRounds(n)+1) + 1
	if bits > packedLayoutBits {
		return fmt.Errorf("core: n=%d nodes over namespace N=%d need a %d-bit payload layout, wider than the %d-bit packed form",
			n, bigN, bits, packedLayoutBits)
	}
	return nil
}

// crashCodec bit-packs the crash algorithm's two high-volume payloads —
// status and response — into two machine words each, the only form in
// which they travel. Packing is decoupled from billing: statusBits and
// responseBits keep the paper's field-width accounting (ID over [N],
// endpoints over [n], counters over [log n + 1]), while the packed
// layout uses widths wide enough for every value the implementation can
// actually produce (d and p advance at most once per phase, so both fit
// under TotalRounds). Notify needs no codec: it is already a zero-size
// struct billed at one bit.
//
// Every node derives the codec from the shared CrashConfig, so widths
// agree across the run without ever being put on the wire.
type crashCodec struct {
	idBits int // ID ∈ [1, N]
	ivBits int // interval endpoints ∈ [1, n]
	pcBits int // d and p counters, bounded by the phase budget

	// statusBits / responseBits are the billed widths — constant per
	// run, precomputed once.
	statusBits   uint16
	responseBits uint16

	scratch [2]uint64 // Writer backing, reused across encodes
}

func newCrashCodec(cfg CrashConfig) crashCodec {
	n := len(cfg.IDs)
	if err := checkCrashLayout(n, cfg.N); err != nil {
		panic(err) // CrashConfig.Validate rejects this configuration
	}
	// ID ∈ [N]; interval endpoints ∈ [n]; d ≤ ceil(log2 n)+1;
	// p ≤ ceil(log2 n)+1 (once p reaches log2 n everyone is elected).
	statusBits := bitsFor(cfg.N) + 2*bitsFor(n) + 2*bitsFor(log2Ceil(n)+1)
	return crashCodec{
		idBits:       bitsFor(cfg.N),
		ivBits:       bitsFor(n),
		pcBits:       bitsFor(cfg.TotalRounds() + 1),
		statusBits:   uint16(statusBits),
		responseBits: uint16(statusBits + 1), // Done flag
	}
}

// PackedStatus is the wire form of a status: the five fields of
// StatusPayload bit-packed into two words, billed at the paper's field
// widths.
type PackedStatus struct {
	w0, w1 uint64
	bits   uint16
}

var _ sim.Payload = PackedStatus{}

// Kind implements sim.Payload.
func (PackedStatus) Kind() string { return KindStatus }

// Bits implements sim.Payload.
func (p PackedStatus) Bits() int { return int(p.bits) }

// PackedResponse is the wire form of a response (PackedStatus plus the
// early-stop Done flag).
type PackedResponse struct {
	w0, w1 uint64
	bits   uint16
}

var _ sim.Payload = PackedResponse{}

// Kind implements sim.Payload.
func (PackedResponse) Kind() string { return KindResponse }

// Bits implements sim.Payload.
func (p PackedResponse) Bits() int { return int(p.bits) }

func (c *crashCodec) encodeStatus(s StatusPayload) PackedStatus {
	w := bitvec.NewWriter(c.scratch[:0])
	w.Append(uint64(s.ID), c.idBits)
	w.Append(uint64(s.I.Lo), c.ivBits)
	w.Append(uint64(s.I.Hi), c.ivBits)
	w.Append(uint64(s.D), c.pcBits)
	w.Append(uint64(s.P), c.pcBits)
	words := w.Words()
	out := PackedStatus{w0: words[0], bits: c.statusBits}
	if len(words) > 1 {
		out.w1 = words[1]
	}
	return out
}

func (c *crashCodec) decodeStatus(p *PackedStatus, out *StatusPayload) {
	words := [2]uint64{p.w0, p.w1}
	r := bitvec.NewReader(words[:])
	out.ID = int(r.Take(c.idBits))
	out.I = interval.Interval{Lo: int(r.Take(c.ivBits)), Hi: int(r.Take(c.ivBits))}
	out.D = int(r.Take(c.pcBits))
	out.P = int(r.Take(c.pcBits))
}

func (c *crashCodec) encodeResponse(s ResponsePayload) PackedResponse {
	w := bitvec.NewWriter(c.scratch[:0])
	w.Append(uint64(s.ID), c.idBits)
	w.Append(uint64(s.I.Lo), c.ivBits)
	w.Append(uint64(s.I.Hi), c.ivBits)
	w.Append(uint64(s.D), c.pcBits)
	w.Append(uint64(s.P), c.pcBits)
	w.AppendBool(s.Done)
	words := w.Words()
	out := PackedResponse{w0: words[0], bits: c.responseBits}
	if len(words) > 1 {
		out.w1 = words[1]
	}
	return out
}

func (c *crashCodec) decodeResponse(p *PackedResponse, out *ResponsePayload) {
	words := [2]uint64{p.w0, p.w1}
	r := bitvec.NewReader(words[:])
	out.ID = int(r.Take(c.idBits))
	out.I = interval.Interval{Lo: int(r.Take(c.ivBits)), Hi: int(r.Take(c.ivBits))}
	out.D = int(r.Take(c.pcBits))
	out.P = int(r.Take(c.pcBits))
	out.Done = r.TakeBool()
}
