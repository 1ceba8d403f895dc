package main

import "testing"

// digests returns each workload's input digest for seed.
func digests(seed int64) map[string]string {
	_, adaptive := adaptiveSeeds(seed)
	return map[string]string{
		"ingest":   genIngest(seed, 2).digest,
		"adaptive": adaptive,
		"mixed":    genMixed(seed, 2).digest,
	}
}

func TestInputDigestFollowsSeed(t *testing.T) {
	a, again, other := digests(7), digests(7), digests(8)
	for w := range a {
		if a[w] != again[w] {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a[w], again[w])
		}
		if a[w] == other[w] {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w, a[w])
		}
	}
}

func TestMixedRequestsKeepTenantsOnTheirSender(t *testing.T) {
	in := genMixed(3, 2)
	reads, ring := 0, 0
	for i, q := range in.reqs {
		if q.tenant%2 != i%2 {
			t.Fatalf("request %d targets tenant %d, owned by the other sender", i, q.tenant)
		}
		switch {
		case q.ups == nil:
			reads++
		case mixedTenants[q.tenant].spec.Policy != "":
			ring++
		}
	}
	if share := float64(reads) / float64(len(in.reqs)); share < 0.08 || share > 0.12 {
		t.Errorf("read share %.3f, want about %.2f", share, mixedReadShare)
	}
	// The ring tenant takes mixedRingShare of sender 1's writes.
	writes1 := float64(len(in.reqs)-reads) / 2
	if share := float64(ring) / writes1; share < mixedRingShare*0.8 || share > mixedRingShare*1.2 {
		t.Errorf("ring share of its sender's writes %.3f, want about %.3f", share, mixedRingShare)
	}
}

func TestTruthTracksF2AndTopThree(t *testing.T) {
	tr := newTruth()
	for _, u := range []struct {
		item uint64
		n    int64
	}{{5, 3}, {9, 1}, {2, 4}, {7, 2}, {9, 4}} {
		tr.add(u.item, u.n)
	}
	// counts: 5→3, 9→5, 2→4, 7→2
	if tr.f2 != 9+25+16+4 {
		t.Errorf("f2 = %d, want 54", tr.f2)
	}
	if want := []uint64{9, 2, 5}; len(tr.top) != 3 || tr.top[0] != want[0] || tr.top[1] != want[1] || tr.top[2] != want[2] {
		t.Errorf("top = %v, want %v", tr.top, want)
	}
	if f := tr.freq(); f.Fp(2) != 54 || f.F0() != 4 {
		t.Errorf("freq F2 %v F0 %v, want 54 and 4", f.Fp(2), f.F0())
	}
}
