package engine

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync/atomic"
)

// Arena chunk sizing: the first chunk is small so tiny runs pay next to
// nothing, and each later chunk doubles up to arenaMaxChunk. A key longer
// than a chunk gets a dedicated chunk of its own size.
const (
	arenaFirstChunk = 1 << 10
	arenaMaxChunk   = 1 << 20
	arenaMinSlots   = 64
)

// Slot layout: | tag (20 bits) | chunk index (24) | offset in chunk (20) |.
// The tag is the top of the key's hash with its highest bit forced on, so
// an occupied slot is never zero and zero marks an empty one.
const (
	slotOffBits   = 20
	slotChunkBits = 24
	slotTagShift  = slotOffBits + slotChunkBits
	slotTagBits   = 64 - slotTagShift
	slotTagOn     = 1 << (slotTagBits - 1)
)

// arenaSet is the visited set of the Layered driver: a single-writer,
// open-addressing hash set of byte keys.
//
// Keys are copied, each behind a uvarint length, into chunked []byte arenas
// that hold no pointers, so the garbage collector never scans them and no
// key costs a heap object of its own. The table is a []uint64 of slots,
// each packing a hash tag and an arena reference, probed linearly and
// hashed with hash/maphash.
//
// insert is the only writer and must not run concurrently with anything
// else; has may run from many goroutines at once while no insert runs.
// Layered keeps that discipline by construction: commit, which inserts,
// runs sequentially between the parallel expansion phases. The only reads
// that may overlap an insert are of the stripe counters, which are atomic.
type arenaSet struct {
	seed   maphash.Seed
	slots  []uint64
	n      int
	chunks [][]byte
	// stripes counts keys per fnv1a(key)&(shardCount-1), the stripe choice
	// of ShardedMap, so shardStats reports exactly what a ShardedMap
	// holding the same keys would (span attributes and occupancy gauges).
	stripes [shardCount]atomic.Int64
}

func newArenaSet() *arenaSet {
	return &arenaSet{seed: maphash.MakeSeed(), slots: make([]uint64, arenaMinSlots)}
}

func slotTag(h uint64) uint64 { return h>>slotTagShift | slotTagOn }

// keyAt returns the arena bytes a slot refers to.
func (s *arenaSet) keyAt(slot uint64) []byte {
	c := s.chunks[(slot>>slotOffBits)&(1<<slotChunkBits-1)][slot&(1<<slotOffBits-1):]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// find returns the slot index holding key, or the empty slot where key
// would go, and whether key is present.
func (s *arenaSet) find(key []byte, h uint64) (int, bool) {
	tag := slotTag(h)
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl == 0 {
			return int(i), false
		}
		if sl>>slotTagShift == tag && bytes.Equal(s.keyAt(sl), key) {
			return int(i), true
		}
	}
}

// has reports whether key is in the set. Safe for concurrent use while no
// insert runs.
func (s *arenaSet) has(key []byte) bool {
	_, ok := s.find(key, maphash.Bytes(s.seed, key))
	return ok
}

// insert adds key iff it is absent and reports whether it did. The key is
// copied into the arena; the caller may reuse its buffer.
func (s *arenaSet) insert(key []byte) bool {
	h := maphash.Bytes(s.seed, key)
	i, ok := s.find(key, h)
	if ok {
		return false
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
		i, _ = s.find(key, h)
	}
	s.slots[i] = slotTag(h)<<slotTagShift | s.store(key)
	s.n++
	s.stripes[fnv1a(key)&(shardCount-1)].Add(1)
	return true
}

// store appends key to the arena and returns its reference (chunk index and
// offset, the low bits of a slot).
func (s *arenaSet) store(key []byte) uint64 {
	need := uvarintLen(uint64(len(key))) + len(key)
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < need {
		size := arenaFirstChunk
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), arenaMaxChunk)
		}
		size = max(size, need)
		s.chunks = append(s.chunks, make([]byte, 0, size))
		last++
		if last >= 1<<slotChunkBits {
			panic("engine: visited-set arena exhausted")
		}
	}
	c := s.chunks[last]
	off := len(c)
	c = binary.AppendUvarint(c, uint64(len(key)))
	s.chunks[last] = append(c, key...)
	return uint64(last)<<slotOffBits | uint64(off)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// grow doubles the table and re-places every slot. The tag holds only the
// top of the hash, so each key is re-hashed from the arena.
func (s *arenaSet) grow() {
	old := s.slots
	s.slots = make([]uint64, 2*len(old))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl == 0 {
			continue
		}
		i := maphash.Bytes(s.seed, s.keyAt(sl)) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// shardStats reports the largest stripe and the number of non-empty
// stripes, as ShardedMap.ShardStats does for the same keys. Safe to call
// concurrently with insert.
func (s *arenaSet) shardStats() (maxLen, nonEmpty int) {
	for i := range s.stripes {
		n := int(s.stripes[i].Load())
		if n > maxLen {
			maxLen = n
		}
		if n > 0 {
			nonEmpty++
		}
	}
	return maxLen, nonEmpty
}
