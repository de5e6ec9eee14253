package network

import (
	"math/rand"
	"testing"
)

// chanTableRanks and chanTableTags span the table's differential test's key
// domain: ranks at both ends of the accepted range (a topology has at most
// 2^24 NPUs) and tags of either sign, few enough that keys repeat.
var (
	chanTableRanks = []int{0, 1, 2, 1<<24 - 2, 1<<24 - 1}
	chanTableTags  = []int{-1 << 31, -1, 0, 1, 1 << 16, 1<<17 + 5}
)

// chanTableKeys returns the differential test's keys: every (src, dst, tag)
// over chanTableRanks and chanTableTags, and a crowded family of keys whose
// home is the last slot of the first-size table, so that their probe runs
// share one home and wrap around to slot 0.
func chanTableKeys(t testing.TB) (all, crowded []matchKey) {
	for _, src := range chanTableRanks {
		for _, dst := range chanTableRanks {
			for _, tag := range chanTableTags {
				all = append(all, matchKey{src: src, dst: dst, tag: tag})
			}
		}
	}
	const last, want, scanned = minChanSlots - 1, 12, 1 << 11
	for tag := -scanned / 2; tag < scanned/2 && len(crowded) < want; tag++ {
		if k := (matchKey{src: 1<<24 - 1, dst: 3, tag: tag}); int(k.hash())&last == last {
			crowded = append(crowded, k)
		}
	}
	if len(crowded) < want {
		t.Fatalf("%d of %d keys that differ in tag alone have home slot %d of %d, want %d", len(crowded), scanned, last, minChanSlots, want)
	}
	return all, crowded
}

// runChanTableDiff decodes insert, lookup and remove operations from data,
// applies them to a table and to a plain map, and requires the two to agree
// on every lookup, on every present key after each change, and on the live
// count; finally it removes every key, checking the rest after each
// removal, and requires an empty table.
func runChanTableDiff(t testing.TB, all, crowded []matchKey, data []byte) {
	var tab chanTable
	ref := make(map[matchKey]*channel)
	check := func(op string, changed matchKey) {
		t.Helper()
		if tab.live != len(ref) {
			t.Fatalf("after %s %v: %d live entries, map holds %d", op, changed, tab.live, len(ref))
		}
		for k, c := range ref {
			if got := tab.slots[tab.find(k)].c; got != c {
				t.Fatalf("after %s %v: %v finds %p, map holds %p", op, changed, k, got, c)
			}
		}
	}
	in := &byteStream{data: data}
	for !in.done() {
		op := in.pick(4)
		k := all[in.pick(len(all))]
		if in.pick(2) == 0 {
			k = crowded[in.pick(len(crowded))]
		}
		i := tab.find(k)
		if got, want := tab.slots[i].c, ref[k]; got != want {
			t.Fatalf("lookup of %v finds %p, map holds %p", k, got, want)
		}
		switch {
		case op < 2 && ref[k] == nil:
			c := &channel{}
			tab.insert(i, k, c)
			ref[k] = c
			check("inserting", k)
		case op == 2 && ref[k] != nil:
			tab.remove(i)
			delete(ref, k)
			check("removing", k)
		}
	}
	for _, keys := range [][]matchKey{all, crowded} {
		for _, k := range keys {
			if ref[k] != nil {
				tab.remove(tab.find(k))
				delete(ref, k)
				check("draining", k)
			}
		}
	}
	for i, s := range tab.slots {
		if s.c != nil {
			t.Fatalf("slot %d still holds %v after every key was removed", i, s.k)
		}
	}
}

// TestChanTableMatchesMap runs random operation sequences through the
// table and a plain map.
func TestChanTableMatchesMap(t *testing.T) {
	all, crowded := chanTableKeys(t)
	for seed := 0; seed < 2000; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		runChanTableDiff(t, all, crowded, data)
	}
}

// FuzzChanTable drives the table's differential check with arbitrary
// operation sequences.
func FuzzChanTable(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	all, crowded := chanTableKeys(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		runChanTableDiff(t, all, crowded, data)
	})
}

// Keys that differ in one field alone, or in src and dst together as a
// pipeline stage's neighbours do, must spread over the table: a hash that
// ignored a field would file them all under one home slot and make every
// probe walk the whole run.
func TestChanHashSpreadsEveryField(t *testing.T) {
	const n, slots = 256, 1024
	for _, c := range []struct {
		name string
		key  func(i int) matchKey
	}{
		{"src", func(i int) matchKey { return matchKey{src: i, dst: 5, tag: 1 << 16} }},
		{"dst", func(i int) matchKey { return matchKey{src: 1<<24 - 1, dst: i, tag: 0} }},
		{"tag", func(i int) matchKey { return matchKey{src: 3, dst: 67, tag: 1<<17 + i} }},
		{"negative tag", func(i int) matchKey { return matchKey{src: 3, dst: 67, tag: -i} }},
		{"src and dst", func(i int) matchKey { return matchKey{src: i, dst: i + 64, tag: 7} }},
	} {
		homes := make(map[int]bool)
		for i := 0; i < n; i++ {
			homes[int(c.key(i).hash())&(slots-1)] = true
		}
		if len(homes) < n/2 {
			t.Errorf("%d keys that differ in %s alone share %d home slots of %d, want at least %d", n, c.name, len(homes), slots, n/2)
		}
	}
}
