package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// newDiskServer builds a server with a counting stub runner and a spill
// directory attached, returning it with its test listener.
func newDiskServer(t *testing.T, dir string, cacheCap int, execs *atomic.Int32) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, CacheCap: cacheCap, Runner: countingStub(execs)})
	if _, err := s.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestWarmRestartServesFromDisk: results computed before a "restart" (new
// Server over the same directory) are served byte-identically from disk
// without re-simulating, reported as "source": "disk", and counted on the
// disk-hit counter.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	var execs1 atomic.Int32
	_, ts1 := newDiskServer(t, dir, 8, &execs1)

	const body = `{"mix":"CGL"}`
	resp, before := post(t, ts1.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-restart run: status=%d body=%s", resp.StatusCode, before)
	}
	if execs1.Load() != 1 {
		t.Fatalf("pre-restart execs = %d, want 1", execs1.Load())
	}
	var beforeEnv struct {
		Result
	}
	if err := json.Unmarshal(before, &beforeEnv); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// "Restart": a fresh process image over the same spill directory.
	var execs2 atomic.Int32
	s2, ts2 := newDiskServer(t, dir, 8, &execs2)
	resp, after := post(t, ts2.URL, body)
	src, res := decodeEnvelope(t, after)
	if resp.StatusCode != http.StatusOK || src != srcDisk {
		t.Fatalf("post-restart run: status=%d source=%q, want 200/%q", resp.StatusCode, src, srcDisk)
	}
	if execs2.Load() != 0 {
		t.Errorf("post-restart execs = %d, want 0 (warm start)", execs2.Load())
	}
	if res.Text != beforeEnv.Text || res.Digest != beforeEnv.Digest {
		t.Errorf("restarted result differs: %q vs %q", res.Text, beforeEnv.Text)
	}
	if hits := s2.disk.hits.Load(); hits != 1 {
		t.Errorf("disk hits = %d, want 1", hits)
	}

	// The loaded entry was promoted into the memory LRU: round two is a
	// plain cache hit, no second disk read.
	resp, b := post(t, ts2.URL, body)
	if src, _ := decodeEnvelope(t, b); resp.StatusCode != http.StatusOK || src != srcCache {
		t.Fatalf("promoted repeat: status=%d source=%q, want 200/%q", resp.StatusCode, src, srcCache)
	}
	if hits := s2.disk.hits.Load(); hits != 1 {
		t.Errorf("disk hits after promotion = %d, want still 1", hits)
	}
}

// TestRestoredCountAndBound: EnableDiskCache reports how many spill files
// survived from the previous process, and a restart with a smaller cap
// prunes down to it.
func TestRestoredCountAndBound(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	s1, ts1 := newDiskServer(t, dir, 16, &execs)
	for _, body := range []string{`{"mix":"C"}`, `{"mix":"D"}`, `{"mix":"G"}`, `{"mix":"L"}`} {
		if resp, b := post(t, ts1.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %s: status=%d body=%s", body, resp.StatusCode, b)
		}
	}
	if got := s1.disk.entries(); got != 4 {
		t.Fatalf("spill entries = %d, want 4", got)
	}
	ts1.Close()

	s2 := New(Config{Workers: 1, CacheCap: 2, Runner: countingStub(&execs)})
	restored, err := s2.EnableDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Errorf("restored = %d, want 2 (pruned to the new cap)", restored)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if len(files) != 2 {
		t.Errorf("spill files on disk = %d, want 2", len(files))
	}
}

// TestCorruptedSpillRejected: a spill file whose payload was tampered with
// fails its checksum on load — it is counted, deleted, and the scenario is
// re-simulated instead of served corrupt.
func TestCorruptedSpillRejected(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	_, ts1 := newDiskServer(t, dir, 8, &execs)
	const body = `{"mix":"CDH"}`
	if resp, b := post(t, ts1.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status=%d body=%s", resp.StatusCode, b)
	}
	ts1.Close()

	files, err := filepath.Glob(filepath.Join(dir, "*"+spillExt))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (err %v), want exactly 1", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip the payload without breaking the JSON: the checksum must catch it.
	tampered := strings.Replace(string(raw), "stub:CDH", "stub:EVIL", 1)
	if tampered == string(raw) {
		t.Fatal("tamper marker not found in spill payload")
	}
	if err := os.WriteFile(files[0], []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	execs.Store(0)
	s2, ts2 := newDiskServer(t, dir, 8, &execs)
	resp, b := post(t, ts2.URL, body)
	src, res := decodeEnvelope(t, b)
	if resp.StatusCode != http.StatusOK || src != srcRun {
		t.Fatalf("tampered read: status=%d source=%q body=%s, want 200/%q (re-simulated)",
			resp.StatusCode, src, b, srcRun)
	}
	if res.Text != "stub:CDH" {
		t.Errorf("re-simulated text = %q", res.Text)
	}
	if execs.Load() != 1 {
		t.Errorf("execs = %d, want 1 (re-simulation)", execs.Load())
	}
	if le := s2.disk.loadErrors.Load(); le != 1 {
		t.Errorf("load errors = %d, want 1", le)
	}
}

// TestGarbageSpillSchemaRejected: wrong schema or digest mismatch is
// rejected just like a bad checksum.
func TestGarbageSpillSchemaRejected(t *testing.T) {
	dir := t.TempDir()
	d, _, err := openDiskCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := os.WriteFile(d.path(key), []byte(`{"schema":"bogus/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.load(key); ok {
		t.Fatal("bogus-schema spill served")
	}
	if d.loadErrors.Load() != 1 {
		t.Errorf("load errors = %d, want 1", d.loadErrors.Load())
	}
	if _, err := os.Stat(d.path(key)); !os.IsNotExist(err) {
		t.Error("rejected spill file was not deleted")
	}
}

// TestEvictionRemovesSpillFile: evicting an entry from the memory LRU
// deletes its spill file too, keeping disk a mirror of (recent) cache
// state rather than an unbounded archive.
func TestEvictionRemovesSpillFile(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, CacheCap: 2, Runner: countingStub(new(atomic.Int32))})
	if _, err := s.EnableDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, 3)
	for _, mix := range []string{"C", "D", "G"} {
		req := Request{Mix: mix}
		if err := req.Normalize(); err != nil {
			t.Fatal(err)
		}
		key := req.Digest()
		keys = append(keys, key)
		if _, err := s.resolve(context.Background(), nil, req, key, false, true); err != nil {
			t.Fatal(err)
		}
	}
	// Cap 2: the first key was evicted from memory and must be gone on disk.
	if _, err := os.Stat(filepath.Join(dir, keys[0]+spillExt)); !os.IsNotExist(err) {
		t.Error("evicted entry's spill file survived")
	}
	for _, key := range keys[1:] {
		if _, err := os.Stat(filepath.Join(dir, key+spillExt)); err != nil {
			t.Errorf("live entry %s missing its spill file: %v", key[:8], err)
		}
	}
	if got := s.disk.entries(); got != 2 {
		t.Errorf("spill entries = %d, want 2", got)
	}
}

// TestPruneEqualModTimeDeterministic pins the prune tie-break: spill files
// with identical modification times are ordered by name (digest), so which
// entries survive an over-cap prune is a function of the directory's
// contents alone, not ReadDir enumeration order or timestamp granularity
// (coarse filesystem clocks routinely stamp a burst of spills identically).
func TestPruneEqualModTimeDeterministic(t *testing.T) {
	dir := t.TempDir()
	// Open unbounded so all five spills land on disk, then lower the cap:
	// store() prunes eagerly, which would otherwise evict under the fresh
	// write timestamps instead of the equal ones this test pins.
	d, _, err := openDiskCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("%064x", i)
		keys = append(keys, key)
		d.store(key, &Result{Digest: key, Text: "x"})
	}
	stamp := time.Now().Add(-time.Hour)
	for _, k := range keys {
		if err := os.Chtimes(filepath.Join(dir, k+spillExt), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	d.cap = 2
	kept, err := d.pruneLocked()
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Fatalf("pruneLocked kept %d, want cap 2", kept)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var survived []string
	for _, e := range entries {
		survived = append(survived, stripExt(e.Name()))
	}
	sort.Strings(survived)
	// Equal mtimes tie-break by ascending name, so the lexicographically
	// smallest digests survive — every process over this directory prunes
	// to the same survivors.
	want := []string{keys[0], keys[1]}
	if len(survived) != 2 || survived[0] != want[0] || survived[1] != want[1] {
		t.Errorf("survivors %v, want %v", survived, want)
	}
}

// FuzzDecodeSpill: spill files are bytes from outside the process, so the
// decoder must never panic, and anything it accepts must be a well-formed
// envelope for the requested key whose result survives a re-encode.
// Seeds: a real spill written by diskCache.store, its first half, a copy
// with one byte of the checksum flipped, an empty file, and zeros of the
// spill's length. The half, the empty file and the zeros are the shapes
// an unsynced rename can leave after an OS crash.
func FuzzDecodeSpill(f *testing.F) {
	req := Request{Mix: "C", Metrics: true}
	if err := req.Normalize(); err != nil {
		f.Fatal(err)
	}
	key := req.Digest()
	res, err := runSimulation(context.Background(), req)
	if err != nil {
		f.Fatal(err)
	}
	res.Digest = key
	d, _, err := openDiskCache(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	d.store(key, res)
	spill, err := os.ReadFile(d.path(key))
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := decodeSpill(key, spill); !ok {
		f.Fatal("decodeSpill rejects the spill store wrote")
	}
	flipped := append([]byte(nil), spill...)
	i := strings.Index(string(flipped), `"sum":"`)
	if i < 0 {
		f.Fatal("no sum field in spill")
	}
	flipped[i+len(`"sum":"`)] ^= 1
	f.Add(key, spill)
	f.Add(key, spill[:len(spill)/2])
	f.Add(key, flipped)
	f.Add(key, []byte{})
	f.Add(key, make([]byte, len(spill)))

	f.Fuzz(func(t *testing.T, key string, b []byte) {
		got, ok := decodeSpill(key, b)
		if !ok {
			return
		}
		var env spillEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("accepted spill does not decode as an envelope: %v", err)
		}
		if env.Schema != SpillSchema || env.Digest != key {
			t.Fatalf("accepted envelope schema %q digest %q for key %q", env.Schema, env.Digest, key)
		}
		want, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-encode accepted result: %v", err)
		}
		again, err := encodeSpill(key, got)
		if err != nil {
			t.Fatalf("re-seal accepted result: %v", err)
		}
		back, ok := decodeSpill(key, again)
		if !ok {
			t.Fatalf("re-sealed spill rejected: %s", again)
		}
		if have, err := json.Marshal(back); err != nil || string(have) != string(want) {
			t.Fatalf("round trip changed the result:\nhave %s\nwant %s (err %v)", have, want, err)
		}
	})
}

// TestTornSpillFilesRejected: spill files are written without an fsync,
// so after an OS crash a renamed file can come back empty, cut short, or
// as zeros of the right length. Each such file under a valid final name
// is one verified miss: /run re-simulates and answers the correct result,
// the bad load is counted, and the torn bytes are replaced by the fresh
// result's spill.
func TestTornSpillFilesRejected(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	_, ts := newDiskServer(t, dir, 8, &execs)
	const body = `{"mix":"CDH"}`
	if resp, b := post(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed: status=%d body=%s", resp.StatusCode, b)
	}
	ts.Close()
	req := Request{Mix: "CDH"}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, req.Digest()+spillExt)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"first half", whole[:len(whole)/2]},
		{"zeros", make([]byte, len(whole))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.b, 0o644); err != nil {
				t.Fatal(err)
			}
			execs.Store(0)
			s, ts := newDiskServer(t, dir, 8, &execs)
			resp, b := post(t, ts.URL, body)
			src, res := decodeEnvelope(t, b)
			if resp.StatusCode != http.StatusOK || src != srcRun || res.Text != "stub:CDH" {
				t.Fatalf("torn read: status=%d source=%q text=%q, want 200/%q/stub:CDH",
					resp.StatusCode, src, res.Text, srcRun)
			}
			if execs.Load() != 1 {
				t.Errorf("execs = %d, want 1 (re-simulation)", execs.Load())
			}
			if le := s.disk.loadErrors.Load(); le != 1 {
				t.Errorf("load errors = %d, want 1", le)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(whole) {
				t.Errorf("spill file after re-simulation = %q, want the fresh envelope", got)
			}
		})
	}
}

// TestEncodeSpillMatchesMarshal pins the one-pass envelope to the bytes
// json.Marshal writes for the same spillEnvelope, so spill files written
// before and after the one-pass encoder stay interchangeable.
func TestEncodeSpillMatchesMarshal(t *testing.T) {
	req := Request{Mix: "CGL", Metrics: true}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	full, err := runSimulation(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	key := req.Digest()
	full.Digest = key
	for _, tc := range []struct {
		name string
		res  *Result
	}{
		{"metrics and cell", full},
		{"cell only", &Result{Digest: key, MakespanMS: 1.5, Text: full.Text, Cell: full.Cell}},
		{"escapes", &Result{
			Digest:  key,
			Text:    "<a href=\"x\">&amp;</a> \\ \t\n é 中   \x00",
			Metrics: json.RawMessage(`{"k": "<&>", "v": [1, 2]}`),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := encodeSpill(key, tc.res)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(tc.res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(payload)
			want, err := json.Marshal(spillEnvelope{
				Schema:  SpillSchema,
				Digest:  key,
				Sum:     hex.EncodeToString(sum[:]),
				Payload: payload,
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("one-pass envelope differs from json.Marshal:\nhave %s\nwant %s", got, want)
			}
			if _, ok := decodeSpill(key, got); !ok {
				t.Fatal("decodeSpill rejects the one-pass envelope")
			}
		})
	}
	if _, err := encodeSpill("../etc/passwd", full); err == nil {
		t.Error("encodeSpill accepted a key that is not a digest")
	}
}

// BenchmarkDiskCacheStore measures the spill a cold /run waits on: each op
// stores one ~3 KB result and evicts the file of an older one, in a
// directory that holds a steady window of entries.
func BenchmarkDiskCacheStore(b *testing.B) {
	req := Request{Mix: "CGL"}
	if err := req.Normalize(); err != nil {
		b.Fatal(err)
	}
	res, err := runSimulation(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	res.Digest = req.Digest()
	payload, err := json.Marshal(res)
	if err != nil {
		b.Fatal(err)
	}
	if pad := 3<<10 - len(payload); pad > 0 {
		res.Text += strings.Repeat(".", pad)
	}
	d, _, err := openDiskCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	const window = 8
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	for _, key := range keys[:window] {
		d.store(key, res)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := window; i < b.N+window; i++ {
		d.store(keys[i%len(keys)], res, keys[(i-window)%len(keys)])
	}
	b.StopTimer()
	if n := d.spillErrors.Load(); n != 0 {
		b.Fatalf("%d spill errors", n)
	}
	if n := d.entries(); n != window {
		b.Fatalf("spill entries = %d, want %d", n, window)
	}
}
