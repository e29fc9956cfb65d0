// Package core implements the paper's two strong renaming algorithms and
// the Byzantine node behaviours used to attack the second one.
//
// # Crash-resilient renaming (Section 2, Figures 1–3)
//
// CrashNode runs 3·⌈log₂ n⌉ phases of three synchronous rounds each:
//
//	round 1  committee members broadcast a Notify announcement;
//	round 2  every node reports ⟨ID, I, d, p⟩ to each announcing member;
//	round 3  members run CommitteeAction: they compute the minimum depth
//	         d̃ among the reports, halve exactly the depth-d̃ intervals by
//	         the identity-rank rule (bot if |B| + rank ≤ |bot(I)|, top
//	         otherwise), and echo deeper reports unchanged. Nodes process
//	         the responses at the start of the next phase (NodeAction).
//
// A node that hears no response concludes the whole committee crashed:
// it increments its probability exponent p and re-elects itself with
// probability 256·2^p·log n / n — the doubling that forces the adversary
// to spend exponentially more crashes per committee wipe and makes the
// message bill scale with the actual number of failures f. The invariants
// behind correctness (interval occupancy ≤ interval size, p-gap ≤ 1,
// progress every two phases) are checked as tests in this package.
//
// Two extensions are provided as options: EarlyStop (the committee flags
// a Done bit once every reported interval is a unit, making the round
// count adaptive) and DisableReelectionDoubling (the A1 ablation).
//
// # Byzantine-resilient renaming (Section 3)
//
// ByzNode proceeds through four phases:
//
//	elect       identities sampled into the shared candidate pool (or
//	            selected by public-hash sortition) announce themselves;
//	aggregate   every node sends its identity to the committee, giving
//	            each member an N-bit identity list L;
//	loop        the committee agrees on L by fingerprint divide-and-
//	            conquer: Validator on ⟨hash(segment), popcount⟩, Consensus
//	            on the validator's same flag, a diff-report exchange,
//	            Consensus on the amplified diff flag; disagreement splits
//	            the segment and recurses (O(f·log N) iterations, Lemma
//	            3.10), while members whose segment lost the vote mark it
//	            dirty, rewrite it to the agreed popcount, and abstain from
//	            distributing inside it;
//	distribute  members send each directly-known node its rank in the
//	            agreed list; nodes decide on the plurality of a two-thirds
//	            quorum of NEW messages.
//
// New identities are ranks in a list every correct member agrees on, so
// the renaming is strong and order-preserving (Lemma 3.12).
//
// ByzAttacker implements the static adversary's strategies: silent,
// split-world (announce to half the committee — drives recursion),
// minority-split (withhold from a sub-third — drives the dirty path),
// equivocate (conflicting subprotocol values plus fabricated NEW
// messages), and spam. The committee views of correct nodes are
// instantiated under the common-view assumption of Lemmas 3.3/3.4; see
// DESIGN.md §2 for the modelling note.
//
// # Wire forms
//
// The high-volume kinds have one wire form each: crash status and
// response travel as two-word PackedStatus/PackedResponse boxes
// (crashCodec), Byzantine NEW as a one-word PackedNew (byzCodec), for
// honest senders and attackers alike. StatusPayload, ResponsePayload and
// NewPayload are only the decoded data. The codecs alone hold the
// billing formula — the paper's field widths, independent of the packed
// layout — and CrashConfig.Validate rejects the astronomically large
// (n, N) whose crash layout would not fit 128 bits.
package core
