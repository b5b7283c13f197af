package rendezvous_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"natpunch/internal/inet"
	"natpunch/internal/rendezvous"
)

func ep(i int) inet.Endpoint {
	return inet.Endpoint{Addr: inet.AddrFrom4(18, 181, 0, byte(30+i)), Port: 1234}
}

// TestOwnerDependsOnlyOnNameAndServerSet is the stable-hashing
// property: which *server* owns a name is a function of the name and
// the server set alone — the same on every call, whichever member the
// pool lists first — so every participant computes the same home and
// nothing server-local can re-home a client.
func TestOwnerDependsOnlyOnNameAndServerSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	servers := []inet.Endpoint{ep(1), ep(2), ep(3), ep(4)}
	for trial := 0; trial < 500; trial++ {
		name := fmt.Sprintf("peer-%d-%x", trial, rng.Uint64())
		want := rendezvous.Owner(name, servers)
		for r := range servers {
			rotated := append(append([]inet.Endpoint(nil), servers[r:]...), servers[:r]...)
			if got := rendezvous.Owner(name, rotated); got != want {
				t.Fatalf("pool rotated by %d changed owner of %q: %v != %v", r, name, got, want)
			}
		}
	}
}

// TestPreferenceIsStablePermutation: Preference is a permutation of
// the input pool, deterministic, and a pure function of the *set* —
// supplying the pool in any order yields the identical preference
// list, so every participant agrees on homes and failover order.
func TestPreferenceIsStablePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := []inet.Endpoint{ep(1), ep(2), ep(3), ep(4), ep(5)}
	for trial := 0; trial < 300; trial++ {
		name := fmt.Sprintf("n%x", rng.Uint64())
		want := rendezvous.Preference(name, pool)
		if len(want) != len(pool) {
			t.Fatalf("preference dropped members: %v", want)
		}
		seen := map[inet.Endpoint]bool{}
		for _, e := range want {
			seen[e] = true
		}
		if len(seen) != len(pool) {
			t.Fatalf("preference is not a permutation: %v", want)
		}
		if want[0] != rendezvous.Owner(name, pool) {
			t.Fatalf("preference head %v != owner %v", want[0], rendezvous.Owner(name, pool))
		}
		shuffled := append([]inet.Endpoint(nil), pool...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := rendezvous.Preference(name, shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("pool order changed the preference:\n in order: %v\nshuffled: %v", want, got)
		}
	}
}

// TestOwnerMinimalReassignment: removing one server only re-homes the
// names it owned (rendezvous hashing's minimal-disruption property) —
// the reason failover churn is bounded by the dead server's share.
func TestOwnerMinimalReassignment(t *testing.T) {
	full := []inet.Endpoint{ep(1), ep(2), ep(3), ep(4)}
	without := []inet.Endpoint{ep(1), ep(2), ep(3)}
	moved, kept := 0, 0
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("peer%d", i)
		before := rendezvous.Owner(name, full)
		after := rendezvous.Owner(name, without)
		if before == ep(4) {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("%q re-homed from %v to %v though its owner survived", name, before, after)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestOwnerSpreadsNames sanity-checks the load-balancing claim the
// E-FED experiment measures: names spread over all pool members.
func TestOwnerSpreadsNames(t *testing.T) {
	pool := []inet.Endpoint{ep(1), ep(2), ep(3), ep(4)}
	counts := map[inet.Endpoint]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[rendezvous.Owner(fmt.Sprintf("peer%d", i), pool)]++
	}
	for _, e := range pool {
		share := float64(counts[e]) / n
		if share < 0.15 || share > 0.35 {
			t.Errorf("server %v owns %.1f%% of names; want roughly a quarter", e, share*100)
		}
	}
}
