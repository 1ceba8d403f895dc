package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/sketch"
)

func TestSnapshotEnvelopeRoundTrip(t *testing.T) {
	s := New(Config{Shards: 3, Seed: 3})
	defer s.Drain()
	tn, err := s.getOrCreate("k", TenantSpec{Sketch: "countsketch"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		tn.eng.Update(uint64(i%37), 1)
	}
	enc, err := tn.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != snapshotFormatV2 {
		t.Fatalf("snapshot emits version %d, want V2", enc[0])
	}
	name, got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]byte
	if err := tn.eng.Visit(func(_ int, est sketch.Estimator) error {
		b, err := tn.spec.codec.Append(nil, est)
		parts = append(parts, b)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if name != "countsketch" || len(got) != len(parts) {
		t.Fatalf("decoded (%q, %d parts), want (countsketch, %d)", name, len(got), len(parts))
	}
	for i := range parts {
		if !bytes.Equal(got[i], parts[i]) {
			t.Errorf("part %d is not shard %d's own encoding", i, i)
		}
	}
	// The test builder reproduces the envelope byte for byte, so the
	// tests that build envelopes around arbitrary parts speak the format
	// the server writes.
	if !bytes.Equal(encodeSnapshotV2(name, parts), enc) {
		t.Error("encodeSnapshotV2 differs from the server's envelope")
	}
	// The second snapshot is sized from the first and must not differ.
	if again, err := tn.snapshot(); err != nil || !bytes.Equal(again, enc) {
		t.Errorf("second snapshot differs (err %v)", err)
	}
	if _, _, err := decodeSnapshot(enc[:len(enc)-1]); err == nil {
		t.Error("truncated envelope accepted")
	}
	if _, _, err := decodeSnapshot([]byte{9}); err == nil {
		t.Error("unknown version accepted")
	}
}

// encodeSnapshotV1 reproduces the legacy checksum-free envelope so decode
// compatibility stays pinned even though nothing writes V1 anymore.
func encodeSnapshotV1(sketchName string, parts [][]byte) []byte {
	b := codec.AppendU8s([]byte{snapshotFormatV1}, []byte(sketchName))
	b = codec.AppendU64(b, uint64(len(parts)))
	for _, p := range parts {
		b = codec.AppendU8s(b, p)
	}
	return b
}

// encodeSnapshotV2 builds the checksummed envelope around arbitrary shard
// parts: the V1 body behind a version byte and the body's CRC32-C.
func encodeSnapshotV2(sketchName string, parts [][]byte) []byte {
	body := encodeSnapshotV1(sketchName, parts)[1:]
	b := codec.AppendU64([]byte{snapshotFormatV2}, uint64(crc32.Checksum(body, snapshotCRCTable)))
	return append(b, body...)
}

func TestSnapshotV1StillDecodes(t *testing.T) {
	parts := [][]byte{{4, 5}, {6}}
	name, got, err := decodeSnapshot(encodeSnapshotV1("kmv", parts))
	if err != nil {
		t.Fatalf("V1 envelope rejected: %v", err)
	}
	if name != "kmv" || len(got) != 2 || !bytes.Equal(got[0], parts[0]) || !bytes.Equal(got[1], parts[1]) {
		t.Fatalf("V1 decode = (%q, %v)", name, got)
	}
}

// TestFoldRejectsShardCountMismatch: fold checks the part count against
// the tenant it folds into, not against the one a caller looked up
// earlier. /v1/merge validates against its lookup, then folds into
// whatever getOrCreate resolves; a concurrent create can make that a
// tenant with more shards (Check would index past the parts) or fewer
// (trailing parts would be dropped). Both must be a conflict that leaves
// the tenant untouched.
func TestFoldRejectsShardCountMismatch(t *testing.T) {
	s := New(Config{Seed: 3})
	defer s.Drain()
	src, err := s.getOrCreate("src", TenantSpec{Sketch: "f2", Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		src.eng.Update(uint64(i), 1)
	}
	env, err := src.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, parts, err := decodeSnapshot(env)
	if err != nil {
		t.Fatal(err)
	}
	m, err := src.spec.prepare(parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		dst, err := s.getOrCreate(fmt.Sprintf("dst%d", shards), TenantSpec{Sketch: "f2", Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		dst.eng.Update(1, 5)
		before := dst.eng.Estimate()
		if err := dst.fold(m); !errors.Is(err, errConflict) {
			t.Errorf("%d-part fold into a %d-shard tenant: err = %v, want a conflict", len(parts), shards, err)
		}
		if after := dst.eng.Estimate(); after != before {
			t.Errorf("%d-shard tenant changed %v → %v on a rejected fold", shards, before, after)
		}
	}
}

// TestSnapshotChecksumRejectsBitFlips: any single corrupted body byte in a
// V2 envelope must surface as ErrSnapshotChecksum, never decode.
func TestSnapshotChecksumRejectsBitFlips(t *testing.T) {
	enc := encodeSnapshotV2("f2", [][]byte{{10, 20, 30}, {40}})
	for off := snapshotV2HeaderLen; off < len(enc); off++ {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x01
		if _, _, err := decodeSnapshot(bad); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("flip at offset %d: err = %v, want ErrSnapshotChecksum", off, err)
		}
	}
	// A corrupted stored checksum must also reject.
	bad := append([]byte(nil), enc...)
	bad[1] ^= 0x01
	if _, _, err := decodeSnapshot(bad); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("flip in checksum: err = %v, want ErrSnapshotChecksum", err)
	}
}

// TestMergeAtomicityAndQuota: a snapshot with one corrupted shard blob
// must reject the whole merge (no shard partially applied — a retry after
// repair must not double count), and failed merges against fresh keys
// must not consume quota slots or leave engines behind.
func TestMergeAtomicityAndQuota(t *testing.T) {
	srv := New(Config{Shards: 2, Seed: 3, MaxKeys: 2, DefaultSketch: "f2"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain()

	do := func(method, path string, body []byte) (int, []byte) {
		req, _ := http.NewRequest(method, hs.URL+path, bytes.NewReader(body))
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data
	}
	estimate := func(key string) float64 {
		code, body := do(http.MethodGet, "/v1/estimate?key="+key, nil)
		if code != 200 {
			t.Fatalf("estimate(%s): HTTP %d: %s", key, code, body)
		}
		var e EstimateResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		return e.Estimate
	}

	if code, body := do(http.MethodPost, "/v1/update?key=k&sketch=f2",
		[]byte(`{"updates":[{"item":1,"delta":5},{"item":2,"delta":3}]}`)); code != 200 {
		t.Fatalf("update: HTTP %d: %s", code, body)
	}
	before := estimate("k")

	code, snap := do(http.MethodGet, "/v1/snapshot?key=k", nil)
	if code != 200 {
		t.Fatalf("snapshot: HTTP %d", code)
	}
	name, parts, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	parts[1] = []byte{99} // corrupt one shard blob (bad codec version)
	bad := encodeSnapshotV2(name, parts)

	// Merging the half-corrupted snapshot into the live key must change
	// nothing: phase-1 decode fails before any shard is touched.
	if code, body := do(http.MethodPost, "/v1/merge?key=k", bad); code != http.StatusBadRequest {
		t.Errorf("corrupted merge: HTTP %d (%s), want 400", code, body)
	}
	if after := estimate("k"); after != before {
		t.Errorf("estimate moved %v → %v on a rejected merge (partial apply)", before, after)
	}

	// Failed merges against fresh keys must not leak tenants into the
	// quota: a wrong-shard-count snapshot and the corrupted one both fail
	// without creating "fresh".
	if code, _ := do(http.MethodPost, "/v1/merge?key=fresh", bad); code != http.StatusBadRequest {
		t.Errorf("corrupted merge into fresh key: HTTP %d, want 400", code)
	}
	if code, _ := do(http.MethodPost, "/v1/merge?key=fresh", encodeSnapshotV2(name, parts[:1])); code != http.StatusConflict {
		t.Errorf("wrong shard count into fresh key: HTTP %d, want 409", code)
	}
	code, body := do(http.MethodGet, "/v1/stats", nil)
	if code != 200 {
		t.Fatalf("stats: HTTP %d", code)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Keys != 1 {
		t.Errorf("failed merges leaked tenants: %d keys, want 1", st.Keys)
	}
	for _, ks := range st.Tenants {
		if strings.Contains(ks.Key, "fresh") {
			t.Errorf("tenant %q exists after failed merges", ks.Key)
		}
	}
	// A valid merge still works and doubles the linear state.
	if code, body := do(http.MethodPost, "/v1/merge?key=k", snap); code != 200 {
		t.Fatalf("valid merge: HTTP %d: %s", code, body)
	}
	if after := estimate("k"); after != 4*before { // doubled counters → 4× F2
		t.Errorf("estimate after self-merge = %v, want %v (4× — doubled linear counters)", after, 4*before)
	}
}

// FuzzSnapshotDecode: the merge endpoint's outer wire format must never
// panic on malformed input (the inner sketch codecs have their own fuzz
// targets in internal/fp, internal/f0, internal/heavyhitters and
// internal/entropy — together they cover every format reachable from
// POST /v1/merge).
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(encodeSnapshotV2("f2", [][]byte{{1, 2}, {3}}))
	f.Add(encodeSnapshotV1("f2", [][]byte{{1, 2}, {3}}))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		name, parts, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		// A decoded V2 envelope must checksum-verify its body exactly; any
		// accepted envelope must be internally consistent and re-encode to
		// something that decodes back to the same contents.
		enc := encodeSnapshotV2(name, parts)
		name2, parts2, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if name2 != name || len(parts2) != len(parts) {
			t.Fatalf("round trip changed envelope: (%q, %d) → (%q, %d)", name, len(parts), name2, len(parts2))
		}
		for i := range parts {
			if !bytes.Equal(parts[i], parts2[i]) {
				t.Fatalf("round trip changed part %d", i)
			}
		}
	})
}
