package repro

import (
	"bytes"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/entropy"
	"repro/internal/f0"
	"repro/internal/fp"
	"repro/internal/heavyhitters"
	"repro/internal/server"
)

// Format-stability tests: every persisted or shipped binary format — the
// seven mergeable sketch encodings, the V2 snapshot envelope and the
// checkpoint file — is pinned byte for byte against hex fixtures under
// testdata/golden. A drift in any of them would orphan checkpoints and
// snapshots written by earlier builds, so a failure here means a format
// change that needs a version bump, not a fixture refresh. After a
// deliberate, versioned format change, rewrite the fixtures with
//
//	go test -run 'TestGolden' -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures from the current encoders")

// goldenStream is the fixed insertion stream every golden sketch ingests.
func goldenStream() [][2]int64 {
	rng := rand.New(rand.NewSource(20))
	out := make([][2]int64, 3000)
	for i := range out {
		out[i] = [2]int64{int64(rng.Intn(400)), 1 + int64(rng.Intn(3))}
	}
	return out
}

// checkGolden compares got against the named hex fixture, or rewrites the
// fixture under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".hex")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, name)
	if !bytes.Equal(got, want) {
		off := 0
		for off < len(got) && off < len(want) && got[off] == want[off] {
			off++
		}
		t.Fatalf("%s: encoding drifted from %s (%d bytes, want %d; first difference at offset %d)",
			name, path, len(got), len(want), off)
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", name+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenSketch is the surface every mergeable sketch type shares.
type goldenSketch interface {
	encoding.BinaryAppender
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	Update(item uint64, delta int64)
	Estimate() float64
}

func TestGoldenSketchEncodings(t *testing.T) {
	// build constructs a sketch from a fixed seed; empty is the value its
	// fixture is decoded into.
	cases := []struct {
		name  string
		build func(r *rand.Rand) goldenSketch
		empty func() goldenSketch
	}{
		{"f2", func(r *rand.Rand) goldenSketch { return fp.NewF2(fp.F2Sizing{Rows: 3, Width: 16}, r) },
			func() goldenSketch { return new(fp.F2Sketch) }},
		{"indyk", func(r *rand.Rand) goldenSketch { return fp.NewIndyk(1, 24, r) },
			func() goldenSketch { return new(fp.Indyk) }},
		{"kmv", func(r *rand.Rand) goldenSketch { return f0.NewKMV(32, r) },
			func() goldenSketch { return new(f0.KMV) }},
		{"hll", func(r *rand.Rand) goldenSketch { return f0.NewHLL(6, r) },
			func() goldenSketch { return new(f0.HLL) }},
		{"countsketch", func(r *rand.Rand) goldenSketch {
			return heavyhitters.NewCountSketch(heavyhitters.Sizing{Rows: 3, Width: 16}, r)
		}, func() goldenSketch { return new(heavyhitters.CountSketch) }},
		{"countmin", func(r *rand.Rand) goldenSketch {
			return heavyhitters.NewCountMin(heavyhitters.Sizing{Rows: 3, Width: 16}, r)
		}, func() goldenSketch { return new(heavyhitters.CountMin) }},
		{"cc", func(r *rand.Rand) goldenSketch { return entropy.NewCC(entropy.CCSizing{Groups: 3, Per: 8}, r) },
			func() goldenSketch { return new(entropy.CC) }},
	}
	stream := goldenStream()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(rand.New(rand.NewSource(11)))
			for _, u := range stream {
				s.Update(uint64(u[0]), u[1])
			}
			got, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "sketch_"+c.name, got)

			// The fixture still decodes, to the same estimate, and
			// re-encodes to itself.
			back := c.empty()
			if err := back.UnmarshalBinary(readGolden(t, "sketch_"+c.name)); err != nil {
				t.Fatalf("fixture no longer decodes: %v", err)
			}
			if back.Estimate() != s.Estimate() {
				t.Errorf("decoded estimate %v, want %v", back.Estimate(), s.Estimate())
			}
			again, err := back.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, got) {
				t.Error("decoded fixture re-encodes differently")
			}
		})
	}
}

// goldenConfig is the server configuration of the envelope and checkpoint
// fixtures; its seed fixes every shard's randomness.
func goldenConfig(dataDir string) server.Config {
	return server.Config{Shards: 2, Seed: 17, Eps: 0.5, DefaultSketch: "countsketch", DataDir: dataDir, Fsync: "batch"}
}

// goldenIngest creates the countsketch tenant "g" on h and ingests the
// golden stream, returning the tenant's estimate.
func goldenIngest(t *testing.T, h http.Handler) float64 {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	for i, u := range goldenStream() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"item":%d,"delta":%d}`, u[0], u[1])
	}
	sb.WriteString(`]}`)
	if code, body := goldenDo(t, h, http.MethodPost, "/v1/update?key=g&sketch=countsketch", []byte(sb.String())); code != http.StatusOK {
		t.Fatalf("update: HTTP %d: %s", code, body)
	}
	return goldenEstimate(t, h)
}

func goldenEstimate(t *testing.T, h http.Handler) float64 {
	t.Helper()
	code, body := goldenDo(t, h, http.MethodGet, "/v1/estimate?key=g", nil)
	if code != http.StatusOK {
		t.Fatalf("estimate: HTTP %d: %s", code, body)
	}
	var e server.EstimateResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	return e.Estimate
}

func goldenDo(t *testing.T, h http.Handler, method, path string, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	out, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, out
}

func TestGoldenSnapshotEnvelope(t *testing.T) {
	src := server.New(goldenConfig(""))
	defer src.Drain()
	want := goldenIngest(t, src.Handler())
	code, env := goldenDo(t, src.Handler(), http.MethodGet, "/v1/snapshot?key=g", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: HTTP %d: %s", code, env)
	}
	checkGolden(t, "snapshot_v2_countsketch", env)

	// The fixture still merges: folded into an empty tenant of the same
	// seed it reproduces the estimate, and the merged tenant snapshots
	// back to the fixture.
	dst := server.New(goldenConfig(""))
	defer dst.Drain()
	if code, body := goldenDo(t, dst.Handler(), http.MethodPost, "/v1/merge?key=g", readGolden(t, "snapshot_v2_countsketch")); code != http.StatusOK {
		t.Fatalf("merge fixture: HTTP %d: %s", code, body)
	}
	if got := goldenEstimate(t, dst.Handler()); got != want {
		t.Errorf("merged fixture estimate %v, want %v", got, want)
	}
	if _, again := goldenDo(t, dst.Handler(), http.MethodGet, "/v1/snapshot?key=g", nil); !bytes.Equal(again, env) {
		t.Error("merged fixture snapshots to different bytes")
	}
}

func TestGoldenCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	srv, err := server.Open(goldenConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := goldenIngest(t, srv.Handler())
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "ck-*.ckpt"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("checkpoint files %v (err %v), want exactly one", paths, err)
	}
	got, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "checkpoint_countsketch", got)

	// The fixture alone, with no log beside it, recovers the tenant.
	fresh := t.TempDir()
	if err := os.WriteFile(filepath.Join(fresh, filepath.Base(paths[0])), readGolden(t, "checkpoint_countsketch"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := server.Open(goldenConfig(fresh))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Shutdown()
	if st := rec.Recovery(); st.Tenants != 1 || st.SkippedCheckpoints != 0 {
		t.Fatalf("recovery from fixture: %+v", st)
	}
	if got := goldenEstimate(t, rec.Handler()); got != want {
		t.Errorf("recovered estimate %v, want %v", got, want)
	}
}
