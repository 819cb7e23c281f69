package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gfs/internal/units"
)

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(10)
	if a.Total() != 10 || a.Used() != 0 || a.Free() != 10 {
		t.Fatalf("fresh allocator: %d/%d", a.Used(), a.Total())
	}
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		s, ok := a.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[s] {
			t.Fatalf("slot %d allocated twice", s)
		}
		seen[s] = true
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("alloc on full allocator succeeded")
	}
	a.Release(3)
	s, ok := a.Alloc()
	if !ok || s != 3 {
		t.Fatalf("after release, alloc = %d, %v; want 3", s, ok)
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	a := NewAllocator(4)
	s, _ := a.Alloc()
	a.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Release(s)
}

func TestAllocatorLargeWordSkip(t *testing.T) {
	a := NewAllocator(1000)
	for i := 0; i < 1000; i++ {
		if _, ok := a.Alloc(); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if a.Free() != 0 {
		t.Fatalf("free = %d", a.Free())
	}
}

// Property: alloc/release sequences keep used-count and bitmap consistent,
// and never hand out an allocated slot.
func TestPropertyAllocatorConsistency(t *testing.T) {
	f := func(ops []bool, sizeRaw uint8) bool {
		size := int64(sizeRaw%64) + 1
		a := NewAllocator(size)
		var held []int64
		for _, alloc := range ops {
			if alloc || len(held) == 0 {
				s, ok := a.Alloc()
				if !ok {
					if int64(len(held)) != size {
						return false
					}
					continue
				}
				for _, h := range held {
					if h == s {
						return false
					}
				}
				if !a.IsAllocated(s) {
					return false
				}
				held = append(held, s)
			} else {
				s := held[len(held)-1]
				held = held[:len(held)-1]
				a.Release(s)
				if a.IsAllocated(s) {
					return false
				}
			}
		}
		return a.Used() == int64(len(held))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// chunkSlots is how many slots one lazily allocated bitmap chunk covers.
const chunkSlots = allocChunkWords * 64

// TestAllocatorLastPartialChunk: the last chunk is sized to the words the
// slot count needs, and every slot in it is reachable.
func TestAllocatorLastPartialChunk(t *testing.T) {
	a := NewAllocator(chunkSlots + 100)
	if len(a.chunks) != 2 || a.chunks[0] != nil || a.chunks[1] != nil {
		t.Fatalf("fresh allocator: %d chunks, want 2 untouched", len(a.chunks))
	}
	for i := int64(0); i < a.Total(); i++ {
		if s, ok := a.Alloc(); !ok || s != i {
			t.Fatalf("alloc %d = %d, %v", i, s, ok)
		}
	}
	if got := len(a.chunks[1]); got != 2 {
		t.Fatalf("last chunk has %d words, want 2 for 100 slots", got)
	}
	if _, ok := a.Alloc(); ok || a.Free() != 0 {
		t.Fatalf("full allocator: alloc ok=%v, free %d", ok, a.Free())
	}
	if _, ok := a.AllocRun(2, 1); ok {
		t.Fatal("AllocRun on a full allocator succeeded")
	}
	a.Release(a.Total() - 1)
	if s, ok := a.Alloc(); !ok || s != a.Total()-1 {
		t.Fatalf("realloc of the last slot = %d, %v", s, ok)
	}
}

// TestAllocatorRunAcrossChunks: a run straddling a chunk boundary is
// claimed in both chunks, and only then is the second chunk allocated.
func TestAllocatorRunAcrossChunks(t *testing.T) {
	a := NewAllocator(3 * chunkSlots)
	if s, ok := a.AllocRun(chunkSlots-10, 1); !ok || s != 0 {
		t.Fatalf("first run = %d, %v", s, ok)
	}
	if a.chunks[1] != nil {
		t.Fatal("chunk 1 allocated before any of its slots was set")
	}
	s, ok := a.AllocRun(20, 2)
	if !ok || s != chunkSlots-10 {
		t.Fatalf("straddling run = %d, %v; want %d", s, ok, chunkSlots-10)
	}
	for i := s; i < s+20; i++ {
		if !a.IsAllocated(i) {
			t.Fatalf("slot %d of the straddling run is free", i)
		}
	}
	if a.IsAllocated(s+20) || a.chunks[2] != nil {
		t.Fatal("run spilled past its end")
	}
	if a.Used() != chunkSlots+10 {
		t.Fatalf("used = %d, want %d", a.Used(), chunkSlots+10)
	}
	// A hole in chunk 0 too small for the run must be skipped, landing
	// the next aligned run after the straddling one.
	a.Release(5)
	if s, ok := a.AllocRun(8, 8); !ok || s != chunkSlots+16 {
		t.Fatalf("aligned run after hole = %d, %v; want %d", s, ok, chunkSlots+16)
	}
}

// TestAllocatorReleaseUntouchedChunkPanics: a slot in a chunk that was
// never set is free, so releasing it is a double free — and the check
// must not allocate the chunk.
func TestAllocatorReleaseUntouchedChunkPanics(t *testing.T) {
	a := NewAllocator(2 * chunkSlots)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("release into an untouched chunk did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "double free") {
			t.Fatalf("panic = %v, want a double free", r)
		}
		if a.chunks[1] != nil {
			t.Fatal("failed release allocated the chunk")
		}
	}()
	a.Release(chunkSlots + 5)
}

// refAllocator is a flat, bit-at-a-time allocator with the same next-fit
// rules; the chunked, word-at-a-time Allocator must match it decision for
// decision.
type refAllocator struct {
	used []bool
	hint int64
}

func (r *refAllocator) alloc() (int64, bool) {
	total := int64(len(r.used))
	for scanned := int64(0); scanned < total; scanned++ {
		if i := (r.hint + scanned) % total; !r.used[i] {
			r.used[i] = true
			r.hint = i + 1
			return i, true
		}
	}
	return 0, false
}

func (r *refAllocator) allocRun(n, align int64) (int64, bool) {
	total := int64(len(r.used))
	steps := (total + align - 1) / align
	base := (r.hint / align) % steps
	for s := int64(0); s < steps; s++ {
		i := ((base + s) % steps) * align
		if i+n > total {
			continue
		}
		free := true
		for j := i; j < i+n && free; j++ {
			free = !r.used[j]
		}
		if free {
			for j := i; j < i+n; j++ {
				r.used[j] = true
			}
			r.hint = i + n
			return i, true
		}
	}
	return 0, false
}

func (r *refAllocator) release(i int64) {
	r.used[i] = false
	if i < r.hint {
		r.hint = i
	}
}

// TestAllocatorMatchesReference drives the chunked allocator and the flat
// reference through the same random alloc/run/release mix around a chunk
// boundary and compares every answer.
func TestAllocatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	total := int64(chunkSlots + 3000)
	a := NewAllocator(total)
	ref := &refAllocator{used: make([]bool, total)}
	// Park the hint just before the chunk boundary.
	if s, ok := a.AllocRun(chunkSlots-1500, 1); !ok || s != 0 {
		t.Fatalf("prefill = %d, %v", s, ok)
	}
	ref.allocRun(chunkSlots-1500, 1)
	var held []int64
	for op := 0; op < 4000; op++ {
		switch k := rng.Intn(10); {
		case k < 4:
			s, ok := a.Alloc()
			rs, rok := ref.alloc()
			if s != rs || ok != rok {
				t.Fatalf("op %d Alloc = %d,%v; reference %d,%v", op, s, ok, rs, rok)
			}
			if ok {
				held = append(held, s)
			}
		case k < 7:
			n, align := int64(rng.Intn(40)+2), []int64{1, 4, 32}[rng.Intn(3)]
			s, ok := a.AllocRun(n, align)
			rs, rok := ref.allocRun(n, align)
			if s != rs || ok != rok {
				t.Fatalf("op %d AllocRun(%d,%d) = %d,%v; reference %d,%v", op, n, align, s, ok, rs, rok)
			}
			for i := s; ok && i < s+n; i++ {
				held = append(held, i)
			}
		default:
			if len(held) == 0 {
				continue
			}
			j := rng.Intn(len(held))
			a.Release(held[j])
			ref.release(held[j])
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
		}
	}
	for i := int64(0); i < total; i++ {
		if a.IsAllocated(i) != ref.used[i] {
			t.Fatalf("slot %d: allocated=%v, reference %v", i, a.IsAllocated(i), ref.used[i])
		}
	}
}

func TestStriperRoundRobin(t *testing.T) {
	s := Striper{NSDs: 4, First: 2}
	want := []int{2, 3, 0, 1, 2, 3}
	for b, w := range want {
		if got := s.NSDFor(int64(b)); got != w {
			t.Errorf("NSDFor(%d) = %d, want %d", b, got, w)
		}
	}
}

func TestSpansSingleBlock(t *testing.T) {
	got := spans(units.MiB, 100, 200)
	if len(got) != 1 || got[0].Index != 0 || got[0].Offset != 100 || got[0].Len != 200 {
		t.Fatalf("spans = %+v", got)
	}
}

func TestSpansCrossBlocks(t *testing.T) {
	bs := units.Bytes(1024)
	got := spans(bs, 1000, 2100) // [1000, 3100): blocks 0,1,2,3
	if len(got) != 4 {
		t.Fatalf("spans = %+v", got)
	}
	if got[0].Len != 24 || got[1].Len != 1024 || got[2].Len != 1024 || got[3].Len != 28 {
		t.Fatalf("span lens wrong: %+v", got)
	}
}

// Property: spans partition the request exactly and block-align interior
// boundaries.
func TestPropertySpansPartition(t *testing.T) {
	f := func(offRaw, sizeRaw uint32) bool {
		bs := units.Bytes(256 * units.KiB)
		off := units.Bytes(offRaw % (1 << 26))
		size := units.Bytes(sizeRaw%(1<<24)) + 1
		cur := off
		for i, sp := range spans(bs, off, size) {
			if sp.Len <= 0 || sp.Len > bs {
				return false
			}
			start := units.Bytes(sp.Index)*bs + sp.Offset
			if start != cur {
				return false
			}
			if i > 0 && sp.Offset != 0 {
				return false // only the first span may start mid-block
			}
			cur += sp.Len
		}
		return cur == off+size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
