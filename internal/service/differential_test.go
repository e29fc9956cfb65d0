package service

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"renaming"
)

// The differential suite pins the undo journal's exactness against a
// full snapshot: one service is driven through random
// join/leave/abort traces, the complete state — owner table, rename
// map, materialized live view, uses counters, free-list slots and
// cursors, epoch and lifetime counters — is captured before every
// epoch, and after every aborted or failed epoch the state must equal
// that capture, up to the counters journal.go deliberately leaves
// unjournaled. A snapshot restore would return to exactly that capture,
// so the journal is checked against the snapshot model without a second
// rollback implementation to maintain.

// svcState is a deep copy of everything a Service owns, for
// before/after comparison. Slice copies via append([]T(nil), ...)
// normalize empty to nil, so laziness differences in when buffers
// materialize can't cause spurious nil-vs-empty mismatches.
type svcState struct {
	Owner    []int32
	Names    map[int]int
	Live     []int
	Uses     []uint32
	Slots    []int32
	Head     int
	Tail     int
	HeadPh   uint8
	TailPh   uint8
	Epoch    int
	Peak     int
	Joined   int64
	Failed   int64
	Released int64
	Recycled int64
	Aborts   int64
}

// namesOf copies the committed client → name mapping.
func namesOf(s *Service) map[int]int { return maps.Clone(s.names) }

func captureState(s *Service) svcState {
	return svcState{
		Owner:    append([]int32(nil), s.owner...),
		Names:    namesOf(s),
		Live:     append([]int(nil), s.LiveClients()...),
		Uses:     append([]uint32(nil), s.uses...),
		Slots:    append([]int32(nil), s.free.slots...),
		Head:     s.free.head,
		Tail:     s.free.tail,
		HeadPh:   s.free.headPhase,
		TailPh:   s.free.tailPhase,
		Epoch:    s.epoch,
		Peak:     s.peakLive,
		Joined:   s.totalJoined,
		Failed:   s.totalFailed,
		Released: s.totalReleased,
		Recycled: s.totalRecycled,
		Aborts:   s.totalAborts,
	}
}

// rolledBackDiff reports how after differs from the pre-epoch capture
// before once the epoch rolled back ("" when it does not): Epoch is one
// higher, Aborts one higher on an abort, and per journal.go's contract
// for the unjournaled fields each name's uses grows by 0 or 1, while
// Recycled grows by exactly the number of names whose uses grew from a
// value above 0. Every other field must be unchanged.
func rolledBackDiff(before, after svcState, aborted bool) string {
	want := before
	want.Epoch++
	if aborted {
		want.Aborts++
	}
	if len(after.Uses) != len(before.Uses) {
		return fmt.Sprintf("uses table resized from %d to %d", len(before.Uses), len(after.Uses))
	}
	for name, u := range after.Uses {
		switch prev := before.Uses[name]; u {
		case prev:
		case prev + 1:
			if prev > 0 {
				want.Recycled++
			}
		default:
			return fmt.Sprintf("name %d: uses %d -> %d, want growth of 0 or 1", name, prev, u)
		}
	}
	want.Uses = after.Uses
	if !reflect.DeepEqual(want, after) {
		return fmt.Sprintf("want %+v\ngot  %+v", want, after)
	}
	return ""
}

// runDifferentialTrace drives one service through one random trace.
// The trace mixes committed epochs, forced aborts (FailEpoch fires after
// leaves and the one-shot run mutated state), oversubscribed join
// batches that drain the free list, crash faults that fail a subset of
// joiners, leave-only epochs, and empty epochs.
func runDifferentialTrace(t *testing.T, seed int64, epochs int) {
	t.Helper()
	const capacity = 6
	failFlag := false
	var fault renaming.FaultSpec
	svc, err := New(Config{
		Capacity: capacity,
		BigN:     1 << 20,
		Seed:     seed,
		FaultForEpoch: func(epoch, batch int) renaming.FaultSpec {
			return fault
		},
		FailEpoch: func(epoch int) bool { return failFlag },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rng := rand.New(rand.NewSource(seed))
	nextID := 1
	for epoch := 0; epoch < epochs; epoch++ {
		before := captureState(svc)
		live := before.Live

		// Leaves: a random subset of the live population.
		perm := rng.Perm(len(live))
		leaves := make([]int, 0, len(live))
		for _, idx := range perm[:rng.Intn(len(live)+1)] {
			leaves = append(leaves, live[idx])
		}

		// Joins: usually within the post-leave free budget, sometimes
		// deliberately past it to force the drained-free-list abort.
		room := svc.FreeNames() + len(leaves)
		var joinCount int
		if rng.Intn(5) == 0 {
			joinCount = room + 1 + rng.Intn(2)
		} else {
			joinCount = rng.Intn(room + 1)
		}
		joins := make([]Client, joinCount)
		for i := range joins {
			joins[i] = Client{ID: nextID}
			nextID++
		}

		// Per-epoch knobs the service reads through its hooks: forced
		// aborts and crash faults.
		failFlag = rng.Intn(4) == 0
		fault = renaming.FaultSpec{}
		if rng.Intn(3) == 0 {
			fault = renaming.FaultSpec{
				Kind:    renaming.FaultRandom,
				Budget:  1 + rng.Intn(2),
				Prob:    0.3,
				MidSend: rng.Intn(2) == 0,
			}
		}

		res, err := svc.RunEpoch(joins, leaves)
		if err == nil && !res.Aborted {
			continue
		}
		if diff := rolledBackDiff(before, captureState(svc), err == nil); diff != "" {
			t.Fatalf("seed %d epoch %d (err=%v): rollback did not restore the pre-epoch state:\n%s", seed, epoch, err, diff)
		}
	}
	if svc.Aborts() == 0 {
		t.Logf("seed %d: trace committed every epoch (no rollback exercised)", seed)
	}
}

// TestJournalMatchesSnapshotModel is the deterministic property test:
// many seeds, each a full random trace checked against pre-epoch
// snapshots.
func TestJournalMatchesSnapshotModel(t *testing.T) {
	epochs := 30
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 42, 1234}
	if testing.Short() {
		epochs = 15
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		runDifferentialTrace(t, seed, epochs)
	}
}

// FuzzJournalVsSnapshot lets the fuzzer hunt for trace shapes where the
// journal's reverse replay misses the pre-epoch snapshot.
func FuzzJournalVsSnapshot(f *testing.F) {
	for _, seed := range []int64{1, 77, 4096, -13} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferentialTrace(t, seed, 12)
	})
}
