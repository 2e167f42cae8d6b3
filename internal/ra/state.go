package ra

import (
	"bytes"
	"fmt"
	"strings"

	"paramra/internal/engine"
	"paramra/internal/lang"
)

// Msg is a message in a variable's modification order: the stored value, the
// view it carries, and whether the gap immediately after it is sealed by a
// CAS (no store may ever be inserted between this message and its successor).
type Msg struct {
	Val    lang.Val
	View   View
	Sealed bool
}

// Thread is a thread-local configuration: program counter in the thread's
// CFG, register valuation, and view.
type Thread struct {
	PC   lang.PC
	Regs []lang.Val
	View View
}

// State is a configuration of a fixed instance: per-variable modification
// orders plus all thread-local configurations.
type State struct {
	// Mem[v] is the modification order of variable v; Mem[v][0] is the
	// initial message.
	Mem [][]Msg
	// Threads holds the thread-local configurations, indexed consistently
	// with Instance.Threads.
	Threads []Thread
}

// Clone deep-copies the state into flat storage: all message and thread
// views share one []int, all messages one []Msg and all registers one
// []lang.Val, so a copy costs a handful of allocations however many
// messages it holds.
func (s *State) Clone() *State {
	nmsg, nview, nreg := s.flatSize()
	out := &State{
		Mem:     make([][]Msg, len(s.Mem)),
		Threads: make([]Thread, len(s.Threads)),
	}
	copyFlat(out, s, make([]Msg, nmsg), make([]int, nview), make([]lang.Val, nreg), 0)
	return out
}

// flatSize counts the messages, view entries and registers of s.
func (s *State) flatSize() (nmsg, nview, nreg int) {
	for _, list := range s.Mem {
		nmsg += len(list)
		for _, m := range list {
			nview += len(m.View)
		}
	}
	for _, th := range s.Threads {
		nreg += len(th.Regs)
		nview += len(th.View)
	}
	return nmsg, nview, nreg
}

// copyFlat lays src out in dst over the arenas msgs, views and regs, which
// must be at least src.flatSize() long, with spare extra message slots per
// variable; dst.Mem and dst.Threads must already have src's lengths. Each
// variable's list is capped at its length plus spare, so State.insert
// appends into the list's own slots (or reallocates it) and never overwrites
// the next variable's messages. It returns the unused tail of views.
func copyFlat(dst, src *State, msgs []Msg, views []int, regs []lang.Val, spare int) []int {
	view := func(v View) View {
		n := copy(views, v)
		c := views[:n:n]
		views = views[n:]
		return c
	}
	for v, list := range src.Mem {
		n := len(list)
		nl := msgs[: n : n+spare]
		msgs = msgs[n+spare:]
		for i, m := range list {
			nl[i] = Msg{Val: m.Val, View: view(m.View), Sealed: m.Sealed}
		}
		dst.Mem[v] = nl
	}
	for i, th := range src.Threads {
		n := len(th.Regs)
		r := regs[:n:n]
		regs = regs[n:]
		copy(r, th.Regs)
		dst.Threads[i] = Thread{PC: th.PC, Regs: r, View: view(th.View)}
	}
	return views
}

// Key returns a canonical encoding of the state, used for visited-set
// hashing during exploration. Positions are already canonical ranks, so two
// states are semantically identical iff their keys are equal. The encoding
// is the compact injective varint scheme of engine.KeyEnc.
func (s *State) Key() string {
	enc := engine.GetKeyEnc()
	s.appendKey(enc)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// appendKey encodes the canonical state key into enc without materializing a
// string; the hot exploration paths probe the visited set with enc.Bytes()
// and intern only on first sight.
func (s *State) appendKey(enc *engine.KeyEnc) {
	s.encodeMemKey(enc)
	for i := range s.Threads {
		s.encodeThreadKey(enc, i)
	}
}

// SymKey returns the state key with the first nEnv thread sections (the
// identical env replicas) in sorted order: states equal up to a permutation
// of env replicas share a SymKey. Sound because replicas run the same
// program and messages carry no thread identity.
func (s *State) SymKey(nEnv int) string {
	enc := engine.GetKeyEnc()
	s.appendSymKey(enc, nEnv)
	k := enc.String()
	engine.PutKeyEnc(enc)
	return k
}

// appendSymKey is appendKey under env-replica symmetry canonicalization.
// The env sections are encoded back to back into one pooled encoder and
// emitted in bytes.Compare order — the byte order sort.Strings would give
// the sections as strings — so the key equals the string-sorting encoding
// without materializing a string per replica.
func (s *State) appendSymKey(enc *engine.KeyEnc, nEnv int) {
	s.encodeMemKey(enc)
	if nEnv > len(s.Threads) {
		nEnv = len(s.Threads)
	}
	var offBuf, idxBuf [16]int
	off, idx := offBuf[:0], idxBuf[:0]
	tenc := engine.GetKeyEnc()
	for i := 0; i < nEnv; i++ {
		off = append(off, len(tenc.Bytes()))
		s.encodeThreadKey(tenc, i)
		idx = append(idx, i)
	}
	off = append(off, len(tenc.Bytes()))
	buf := tenc.Bytes()
	section := func(i int) []byte { return buf[off[i]:off[i+1]] }
	// Insertion sort: replica counts are small and mostly presorted.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && bytes.Compare(section(idx[j]), section(idx[j-1])) < 0; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for _, i := range idx {
		enc.Raw(section(i))
	}
	engine.PutKeyEnc(tenc)
	for i := nEnv; i < len(s.Threads); i++ {
		s.encodeThreadKey(enc, i)
	}
}

func (s *State) encodeMemKey(enc *engine.KeyEnc) {
	for _, list := range s.Mem {
		enc.Len(len(list))
		for _, m := range list {
			enc.Int(int(m.Val))
			sealed := 0
			if m.Sealed {
				sealed = 1
			}
			enc.Int(sealed)
			enc.Len(len(m.View))
			for _, t := range m.View {
				enc.Int(t)
			}
		}
	}
}

func (s *State) encodeThreadKey(enc *engine.KeyEnc, i int) {
	th := s.Threads[i]
	enc.Int(int(th.PC))
	enc.Len(len(th.Regs))
	for _, r := range th.Regs {
		enc.Int(int(r))
	}
	enc.Len(len(th.View))
	for _, t := range th.View {
		enc.Int(t)
	}
}

// insert places msg at position pos in variable v's modification order and
// patches every view in the state (thread views and message views) so that
// positions ≥ pos shift up by one. The caller is responsible for having
// checked gap-seal constraints.
func (s *State) insert(v lang.VarID, pos int, msg Msg) {
	list := s.Mem[v]
	list = append(list, Msg{})
	copy(list[pos+1:], list[pos:])
	list[pos] = msg
	s.Mem[v] = list
	bump := func(vw View) {
		if vw[v] >= pos {
			// The inserted message's own view points at itself and must not
			// be bumped; callers set msg.View[v] = pos after this returns if
			// needed. We bump all *pre-existing* views.
			vw[v]++
		}
	}
	for vi := range s.Mem {
		for mi := range s.Mem[vi] {
			if vi == int(v) && mi == pos {
				continue // the new message itself
			}
			bump(s.Mem[vi][mi].View)
		}
	}
	for ti := range s.Threads {
		bump(s.Threads[ti].View)
	}
}

// String renders the state for diagnostics, with names from the instance.
func (s *State) String() string {
	var b strings.Builder
	for v, list := range s.Mem {
		fmt.Fprintf(&b, "var#%d:", v)
		for i, m := range list {
			fmt.Fprintf(&b, " [%d]=%d", i, int(m.Val))
			if m.Sealed {
				b.WriteByte('!')
			}
		}
		b.WriteByte('\n')
	}
	for i, th := range s.Threads {
		fmt.Fprintf(&b, "thread %d: pc=%d regs=%v view=%v\n", i, int(th.PC), th.Regs, th.View)
	}
	return b.String()
}
