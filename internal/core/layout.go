// Package core implements the paper's primary contribution: a GPFS-style
// wide-area parallel file system. Files are striped in fixed-size blocks
// across Network Shared Disks (NSDs); NSD servers perform disk I/O on
// behalf of clients that may sit across a machine room or across the
// country; a token manager coordinates byte-range access so clients can
// cache aggressively; and whole file systems can be exported to other
// clusters over the WAN with RSA cluster authentication (multi-cluster).
//
// The package is built on the simulation substrates (internal/sim,
// internal/netsim, internal/disk, internal/raid, internal/san) but its
// metadata, allocation, striping, token and permission logic is real and
// byte-exact — small files written through a client can be read back
// identically through another client at another site.
package core

import (
	"fmt"
	"math/bits"

	"gfs/internal/units"
)

// BlockRef names one file-system block: which NSD and which block slot on
// that NSD.
type BlockRef struct {
	NSD   int
	Block int64
}

// Valid reports whether the ref points at a real slot.
func (b BlockRef) Valid() bool { return b.NSD >= 0 && b.Block >= 0 }

// NilBlock is the zero/unallocated block reference.
var NilBlock = BlockRef{NSD: -1, Block: -1}

// Allocator hands out block slots on one NSD using a bitmap with a
// next-fit hint, the moral equivalent of a GPFS allocation-map segment.
// The bitmap is stored in chunks of allocChunkWords words that are
// allocated on first set: a nil chunk means every slot in it is free, so a
// large, mostly empty NSD costs memory only for the regions it has used.
type Allocator struct {
	chunks [][]uint64
	total  int64
	used   int64
	hint   int64
}

// allocChunkWords is the bitmap chunk size in 64-bit words (65536 slots).
const allocChunkWords = 1024

// NewAllocator returns an allocator with the given number of slots.
func NewAllocator(blocks int64) *Allocator {
	if blocks <= 0 {
		panic(fmt.Sprintf("core: allocator size %d", blocks))
	}
	words := (blocks + 63) / 64
	return &Allocator{
		chunks: make([][]uint64, (words+allocChunkWords-1)/allocChunkWords),
		total:  blocks,
	}
}

// word returns bitmap word w; an untouched chunk reads as all free.
func (a *Allocator) word(w int64) uint64 {
	c := a.chunks[w/allocChunkWords]
	if c == nil {
		return 0
	}
	return c[w%allocChunkWords]
}

// set ORs mask into bitmap word w, allocating its chunk on first touch.
// The last chunk is sized to the words the slot count needs.
func (a *Allocator) set(w int64, mask uint64) {
	ci := w / allocChunkWords
	c := a.chunks[ci]
	if c == nil {
		c = make([]uint64, min(allocChunkWords, (a.total+63)/64-ci*allocChunkWords))
		a.chunks[ci] = c
	}
	c[w%allocChunkWords] |= mask
}

// runMask clips the run of n slots starting at slot i to the bitmap word
// holding i: it returns that word, the mask of the run's slots in it, and
// how many slots (k) the mask covers.
func runMask(i, n int64) (w int64, mask uint64, k int64) {
	b := i % 64
	k = min(64-b, n)
	return i / 64, (^uint64(0) >> (64 - k)) << b, k
}

// Total returns the slot count.
func (a *Allocator) Total() int64 { return a.total }

// Used returns allocated slots.
func (a *Allocator) Used() int64 { return a.used }

// Free returns unallocated slots.
func (a *Allocator) Free() int64 { return a.total - a.used }

// Alloc claims the next free slot, scanning from the hint. It returns
// false when the NSD is full.
func (a *Allocator) Alloc() (int64, bool) {
	if a.used >= a.total {
		return 0, false
	}
	for scanned := int64(0); scanned < a.total; scanned++ {
		i := (a.hint + scanned) % a.total
		w, b := i/64, uint(i%64)
		word := a.word(w)
		if word&(1<<b) == 0 {
			a.set(w, 1<<b)
			a.used++
			a.hint = i + 1
			return i, true
		}
		// Skip whole full words for speed.
		if b == 0 && word == ^uint64(0) {
			scanned += 63
		}
	}
	return 0, false
}

// AllocRun claims n consecutive free slots whose start is a multiple of
// align (align <= 1 means unaligned) and returns the first slot. It scans
// from the hint like Alloc and fails when no such run exists — callers
// fall back to single-slot allocation. Contiguous, aligned runs are what
// let a client flush a whole RAID stripe as one store write.
func (a *Allocator) AllocRun(n, align int64) (int64, bool) {
	if n <= 1 && align <= 1 {
		return a.Alloc()
	}
	if align < 1 {
		align = 1
	}
	if a.total-a.used < n {
		return 0, false
	}
	steps := (a.total + align - 1) / align // candidate aligned starts
	base := (a.hint / align) % steps       // next-fit: resume near the hint
	for s := int64(0); s < steps; s++ {
		i := ((base + s) % steps) * align
		if i+n > a.total {
			continue
		}
		if j, used := a.runConflict(i, n); used {
			// Every later aligned start up to j overlaps slot j as
			// well, so skip them. j < total, so the skip never passes
			// the wrap back to slot 0.
			s += (j - i) / align
			continue
		}
		for j := i; j < i+n; {
			w, mask, k := runMask(j, i+n-j)
			a.set(w, mask)
			j += k
		}
		a.used += n
		a.hint = i + n
		return i, true
	}
	return 0, false
}

// runConflict tests slots [i, i+n) a bitmap word at a time. It returns
// false when they are all free, else the last allocated slot in the first
// word that has one.
func (a *Allocator) runConflict(i, n int64) (int64, bool) {
	for j := i; j < i+n; {
		w, mask, k := runMask(j, i+n-j)
		if used := a.word(w) & mask; used != 0 {
			return w*64 + 63 - int64(bits.LeadingZeros64(used)), true
		}
		j += k
	}
	return 0, false
}

// IsAllocated reports the state of a slot.
func (a *Allocator) IsAllocated(i int64) bool {
	if i < 0 || i >= a.total {
		return false
	}
	return a.word(i/64)&(1<<uint(i%64)) != 0
}

// Free releases a slot; releasing a free slot panics (double free is a
// metadata corruption, not a recoverable condition).
func (a *Allocator) Release(i int64) {
	if i < 0 || i >= a.total {
		panic(fmt.Sprintf("core: release of slot %d outside [0,%d)", i, a.total))
	}
	w, b := i/64, uint(i%64)
	if a.word(w)&(1<<b) == 0 {
		panic(fmt.Sprintf("core: double free of slot %d", i))
	}
	a.chunks[w/allocChunkWords][w%allocChunkWords] &^= 1 << b
	a.used--
	if i < a.hint {
		a.hint = i
	}
}

// Striper maps file block indexes onto NSDs round-robin, starting at an
// inode-specific offset so load spreads when many small files coexist.
// Group > 1 places that many consecutive file blocks on the same NSD
// before advancing — stripe-group striping, so a gathered flush of
// consecutive blocks is one contiguous store write instead of a scatter
// across every NSD.
type Striper struct {
	NSDs  int
	First int
	Group int // consecutive blocks per NSD; <= 1 is per-block round-robin
}

// NSDFor returns the NSD serving file block index b.
func (s Striper) NSDFor(b int64) int {
	if s.NSDs <= 0 {
		panic("core: striper with no NSDs")
	}
	g := int64(s.Group)
	if g < 1 {
		g = 1
	}
	return int((int64(s.First) + b/g) % int64(s.NSDs))
}

// blockSpan describes the file blocks overlapped by a byte range.
type blockSpan struct {
	Index  int64       // file block index
	Offset units.Bytes // offset within the block
	Len    units.Bytes // bytes of the request inside this block
}

// spans decomposes [off, off+size) into per-block pieces.
func spans(blockSize, off, size units.Bytes) []blockSpan {
	if blockSize <= 0 {
		panic("core: zero block size")
	}
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("core: negative range off=%d size=%d", off, size))
	}
	var out []blockSpan
	for cur := off; cur < off+size; {
		idx := int64(cur / blockSize)
		in := cur % blockSize
		n := blockSize - in
		if rem := off + size - cur; n > rem {
			n = rem
		}
		out = append(out, blockSpan{Index: idx, Offset: in, Len: n})
		cur += n
	}
	return out
}
