package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gfs/internal/sim"
	"gfs/internal/units"
)

// TestAllocsCleanPathResolve pins the metadata path's name handling: an
// already-clean path is neither rebuilt by cleanPath nor split by resolve.
// CI runs it by name.
func TestAllocsCleanPathResolve(t *testing.T) {
	r := newRig(t, 1, 1, 256*units.KiB)
	r.run(t, func(p *sim.Proc) error {
		m, err := r.clients[0].MountLocal(p, r.fs)
		if err != nil {
			return err
		}
		if err := m.Mkdir(p, "/dir"); err != nil {
			return err
		}
		_, err = m.Create(p, "/dir/file", DefaultPerm)
		return err
	})
	const p = "/dir/file"
	if n := testing.AllocsPerRun(100, func() {
		if cleanPath(p) != p {
			t.Fatal("clean path rewritten")
		}
	}); n != 0 {
		t.Errorf("cleanPath on a clean path: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.fs.resolve(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resolve on a clean path: %.1f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := r.fs.resolveParent(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("resolveParent on a clean path: %.1f allocs, want 0", n)
	}
}

// TestSortFuncMatchesSortSlice shows that moving the token-table and
// page-pool sorts from sort.Slice to slices.SortFunc keeps the exact
// permutation, ties included: both are the same pdqsort, so event order
// (and every trace) is unchanged. Keys are drawn from a small range so
// most inputs carry duplicates, told apart by a payload field the
// comparators ignore.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	holders := []string{"c0", "c1", "c2"}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		keys := 1 + rng.Intn(40)

		ranges := make([]heldRange, n)
		for i := range ranges {
			ranges[i] = heldRange{
				Start:  units.Bytes(rng.Intn(keys)),
				End:    units.Bytes(i), // payload: original position
				Holder: holders[rng.Intn(len(holders))],
			}
		}
		want := slices.Clone(ranges)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Start != want[j].Start {
				return want[i].Start < want[j].Start
			}
			return want[i].Holder < want[j].Holder
		})
		got := slices.Clone(ranges)
		slices.SortFunc(got, cmpHeldRange)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: token ranges sorted differently:\n got %v\nwant %v", trial, got, want)
		}

		pages := make([]*page, n)
		for i := range pages {
			pages[i] = &page{key: pageKey{ino: int64(rng.Intn(3)), idx: int64(rng.Intn(keys))}}
		}
		wantIdx := slices.Clone(pages)
		sort.Slice(wantIdx, func(i, j int) bool { return wantIdx[i].key.idx < wantIdx[j].key.idx })
		gotIdx := slices.Clone(pages)
		slices.SortFunc(gotIdx, cmpPageIdx)
		if !slices.Equal(gotIdx, wantIdx) {
			t.Fatalf("trial %d: pagesOf order differs: %s", trial, firstDiff(gotIdx, wantIdx))
		}
		wantKey := slices.Clone(pages)
		sort.Slice(wantKey, func(i, j int) bool {
			if wantKey[i].key.ino != wantKey[j].key.ino {
				return wantKey[i].key.ino < wantKey[j].key.ino
			}
			return wantKey[i].key.idx < wantKey[j].key.idx
		})
		gotKey := slices.Clone(pages)
		slices.SortFunc(gotKey, cmpPageKey)
		if !slices.Equal(gotKey, wantKey) {
			t.Fatalf("trial %d: allPages order differs: %s", trial, firstDiff(gotKey, wantKey))
		}
	}
}

func firstDiff(got, want []*page) string {
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("position %d: got %p %v, want %p %v", i, got[i], got[i].key, want[i], want[i].key)
		}
	}
	return "lengths differ"
}
