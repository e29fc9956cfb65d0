// Package sim implements the synchronous message-passing substrate the
// paper's algorithms run on: a fully connected network of n nodes that
// exchange messages in lockstep rounds, an adaptive crash adversary that
// can kill nodes even mid-send, and metrics that account messages, bits,
// and rounds exactly as the paper's complexity statements do.
//
// # Round engine
//
// Within a round, a persistent pool of workers steps contiguous ranges
// of nodes behind one barrier, each listing the nodes it stepped; the
// coordinator then routes the round once over those lists, through
// slab-backed per-node inbox views (a counting sort by sender).
// Low-traffic rounds adaptively step on the coordinator alone, where
// the barrier handshake would cost more than the round's work; heavy
// rounds fan their steps out across the pool. Either way the
// observable execution is identical.
//
// # Contracts the packages above rely on
//
// Shared-multicast billing: a message addressed to ToSet (multicast to a
// set interned via Sets.InternPhase) or to ToAll (broadcast: the
// reserved set 0, the full link range) is billed as fan-out wire
// messages (sent-on-the-wire semantics — a crashed recipient still costs
// the sender, as in the paper's model) but the payload is stored once:
// recipients covered by exactly one shared source are bound zero-copy to
// a shared aggregate segment, and the rest get a counted per-recipient
// view that the sender-ordered scatter writes the shared entry into.
// Individual copies are written only for rushing previews and for
// senders crashing mid-send, whose outboxes are compacted to the wire
// messages their filter keeps (a filter that keeps everything leaves the
// shared entry in place), in ascending-member order — byte-identical to
// eager emission (the WithEagerMulticast ablation, which declines
// InternPhase but keeps set 0, pins this). Payload implementations must
// therefore be read-only after Send. Delivered To is unspecified (a
// bound view keeps the sender's sentinel); nodes identify themselves by
// their own link index, and From is always the true sender.
//
// Quiescence: a node implementing Quiescent (or registered through
// ScheduleQuiescent) vouches that, on rounds where it reports quiescent
// and its inbox is empty, Step would send nothing and change no state.
// The engine then skips the Step call. A Quiescent answer depends on the
// node's state alone and may change only inside Step, so a vouching
// node is parked: a round that follows one without shared-aggregate
// delivery polls it again only once it has mail, visiting just the
// nodes that stepped or vouched through QuiescentAt the round before
// plus that round's recipients, in ascending order, at any worker
// count. Per-round work in those rounds is proportional to acted
// senders, schedule-quiescent nodes and delivered messages, not to n;
// round 0 and the round after a shared-aggregate round scan all n. The
// contract is one-sided: the engine may still step a quiescent node
// (e.g. when it has mail), so the vouch must be sound, not tight.
//
// Determinism at any worker count: every adversary decision — including
// stateful mid-send crash filters — is evaluated sequentially on the
// coordinator, nodes touch only their own state inside Step, and inbox
// views are delivered sorted by sender. Two runs with equal seeds are
// bit-identical at -workers=1 and -workers=8; the root package's
// determinism tests lock golden fingerprints at both.
//
// Node coins: LazyRand reproduces a per-node
// rand.New(rand.NewSource(DeriveSeed(seed, label))) Float64 stream bit
// for bit from 16 bytes of state, each of its first 273 draws in O(1)
// with no allocation, so n nodes' activation coins cost neither
// resident memory nor set-up time.
//
// # Memory model
//
// Inboxes are views into two alternating slabs (round parity r&1) with
// generation stamps deciding view validity, so idle nodes hold no
// buffers and the engine's footprint tracks messages in flight, not n
// times the historical maximum. A view delivered in round r is valid
// during round r only; payload boxes written in round r may be reused
// no earlier than round r+2. docs/MEMORY.md documents the full
// lifecycle and the scaling model.
package sim
