package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// randomKeys returns n keys with many duplicates: short random byte
// strings, plus the empty key, keys longer than the first arena chunk and
// one longer than the largest chunk.
func randomKeys(rng *rand.Rand, n int) []string {
	keys := []string{"", "", strings.Repeat("x", arenaFirstChunk+7), strings.Repeat("y", arenaMaxChunk+1)}
	for len(keys) < n {
		switch r := rng.Intn(100); {
		case r < 2:
			keys = append(keys, strings.Repeat(string(rune('a'+rng.Intn(3))), arenaFirstChunk+rng.Intn(3*arenaFirstChunk)))
		case r < 30 && len(keys) > 0:
			keys = append(keys, keys[rng.Intn(len(keys))]) // a repeat
		default:
			b := make([]byte, rng.Intn(40))
			for i := range b {
				b[i] = byte(rng.Intn(4)) // small alphabet: many near-collisions
			}
			keys = append(keys, string(b))
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// TestArenaSetMatchesMap checks insert and has against a Go map over random
// keys, across several table doublings and arena chunks.
func TestArenaSetMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := randomKeys(rng, 6000)
		s := newArenaSet()
		ref := map[string]struct{}{}
		for i, k := range keys {
			_, dup := ref[k]
			if got := s.insert([]byte(k)); got == dup {
				t.Fatalf("seed %d: insert #%d (len %d) = %v, map says new = %v", seed, i, len(k), got, !dup)
			}
			ref[k] = struct{}{}
			if !s.has([]byte(k)) {
				t.Fatalf("seed %d: key #%d missing right after insert", seed, i)
			}
		}
		if s.n != len(ref) {
			t.Fatalf("seed %d: %d keys, map has %d", seed, s.n, len(ref))
		}
		if len(s.slots) < 8*arenaMinSlots {
			t.Fatalf("seed %d: table never doubled enough (%d slots)", seed, len(s.slots))
		}
		if len(s.chunks) < 3 {
			t.Fatalf("seed %d: only %d arena chunks", seed, len(s.chunks))
		}
		for k := range ref {
			if !s.has([]byte(k)) {
				t.Fatalf("seed %d: key of len %d missing at the end", seed, len(k))
			}
		}
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("absent-%d", i)
			if _, in := ref[k]; !in && s.has([]byte(k)) {
				t.Fatalf("seed %d: phantom key %q", seed, k)
			}
		}
	}
}

// TestArenaSetStripesMatchShardedMap checks that the stripe counts (and
// with them the shard_max / shards_nonempty attributes and gauges) equal a
// ShardedMap's shard sizes for the same keys.
func TestArenaSetStripesMatchShardedMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newArenaSet()
	sm := NewShardedMap[struct{}]()
	for i, k := range randomKeys(rng, 3000) {
		s.insert([]byte(k))
		sm.TryPut(k, struct{}{})
		if i%500 != 0 {
			continue
		}
		gotMax, gotUsed := s.shardStats()
		wantMax, wantUsed := sm.ShardStats()
		if gotMax != wantMax || gotUsed != wantUsed {
			t.Fatalf("after %d keys: shardStats (%d, %d), ShardedMap (%d, %d)",
				i+1, gotMax, gotUsed, wantMax, wantUsed)
		}
	}
	for i := range s.stripes {
		if got, want := int(s.stripes[i].Load()), len(sm.shards[i].m); got != want {
			t.Errorf("stripe %d: %d keys, ShardedMap shard has %d", i, got, want)
		}
	}
}

// TestArenaSetFrozenConcurrentReads alternates sequential inserts with many
// goroutines probing the frozen set, the access pattern of Layered's
// commit and expansion phases. Run it under -race.
func TestArenaSetFrozenConcurrentReads(t *testing.T) {
	s := newArenaSet()
	var inserted []string
	for round := 0; round < 8; round++ {
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("r%d-k%d", round, i)
			s.insert([]byte(k))
			inserted = append(inserted, k)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(inserted); i += 8 {
					if !s.has([]byte(inserted[i])) {
						errs <- "missing " + inserted[i]
						return
					}
				}
				if s.has([]byte(fmt.Sprintf("r%d-absent%d", round, g))) {
					errs <- "phantom key"
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("round %d: %s", round, e)
		}
	}
}
