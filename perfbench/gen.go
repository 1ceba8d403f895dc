package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"

	"repro/internal/client"
	"repro/internal/dist"
	"repro/internal/stream"
)

// Input generation. Everything a workload sends is drawn here from the
// workload seed alone, before any server exists; the servers' own
// algorithm seed is the constant algoSeed and never derives from it.

const (
	// algoSeed is the sketchd root seed every workload boots with. It is
	// fixed so that two workload seeds exercise the same sketch
	// randomness with different inputs.
	algoSeed = 20200

	// universe bounds the Zipf ranks; items are those ranks scrambled by
	// a fixed mix, so every seed draws from the same items with the same
	// heavy ones, and seeds differ in the draws alone.
	universe = 1 << 20

	// zipfS is the skew of every Zipf stream (the ROADMAP's Zipf(1.2)).
	zipfS = 1.2
)

// rng returns a generator for one named part of the inputs, so adding a
// part never shifts the draws of another.
func rng(seed int64, part uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(dist.SplitMix64(uint64(seed) ^ dist.SplitMix64(part)))))
}

// zipf draws Zipf(zipfS) items over universe ranks.
type zipf struct{ z *rand.Zipf }

func newZipf(seed int64, part uint64) *zipf {
	return &zipf{z: rand.NewZipf(rng(seed, part), zipfS, 1, universe-1)}
}

// itemKey scrambles ranks into 64-bit item ids.
const itemKey = 0x6974656d73

func (z *zipf) next() uint64 { return dist.SplitMix64(z.z.Uint64() ^ itemKey) }

// batchOf draws n unit insertions.
func (z *zipf) batchOf(n int) []client.Update {
	us := make([]client.Update, n)
	for i := range us {
		us[i] = client.Update{Item: z.next(), Delta: 1}
	}
	return us
}

// digest hashes generated inputs: a workload feeds it every value it
// generated, in order, and prints the sum.
type digest struct{ buf []byte }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
}

func (d *digest) updates(us []client.Update) {
	for _, u := range us {
		d.u64(u.Item, uint64(u.Delta))
	}
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:8])
}

// truth is the exact frequency vector of one tenant's acknowledged
// stream, with the figures the checks need kept incrementally: F2 in
// exact integer arithmetic and, for insertion-only streams, the three
// heaviest items.
type truth struct {
	counts map[uint64]int64
	f2     int64
	top    []uint64 // up to 3 items, heaviest first (ties by ascending id)
}

func newTruth() *truth { return &truth{counts: make(map[uint64]int64)} }

func (t *truth) add(item uint64, delta int64) {
	c := t.counts[item]
	t.f2 += (c+delta)*(c+delta) - c*c
	c += delta
	if c == 0 {
		delete(t.counts, item)
	} else {
		t.counts[item] = c
	}
	if delta > 0 {
		t.promote(item)
	}
}

func (t *truth) addAll(us []client.Update) {
	for _, u := range us {
		t.add(u.Item, u.Delta)
	}
}

// promote keeps top correct after item's count grew. Only valid while
// every delta is positive, which holds for every stream that asks for it.
func (t *truth) promote(item uint64) {
	in := false
	for _, x := range t.top {
		if x == item {
			in = true
		}
	}
	if !in {
		if len(t.top) == 3 && !t.heavier(item, t.top[2]) {
			return
		}
		t.top = append(t.top, item)
	}
	sort.Slice(t.top, func(i, j int) bool { return t.heavier(t.top[i], t.top[j]) })
	if len(t.top) > 3 {
		t.top = t.top[:3]
	}
}

func (t *truth) heavier(a, b uint64) bool {
	ca, cb := t.counts[a], t.counts[b]
	if ca != cb {
		return ca > cb
	}
	return a < b
}

// freq returns the vector as a stream.Freq, for the repository's own
// truth functions.
func (t *truth) freq() *stream.Freq {
	f := stream.NewFreq()
	for item, c := range t.counts {
		f.Apply(stream.Update{Item: item, Delta: c})
	}
	return f
}
