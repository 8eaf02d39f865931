package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpillSchema identifies the on-disk spill-file envelope.
const SpillSchema = "relief-spill/1"

// spillExt is the spill-file suffix; files are named <digest>.json.
const spillExt = ".json"

// spillEnvelope is the durable form of one cached result: the digest it
// is addressed by, a sha256 over the payload bytes, and the payload
// itself (the Result's JSON). An empty or torn file (an unsynced write
// lost to an OS crash) or any bit rot fails decoding or the checksum, and
// the entry is discarded instead of served.
type spillEnvelope struct {
	Schema  string          `json:"schema"`
	Digest  string          `json:"digest"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// diskCache is the write-through spill of the in-memory result LRU: one
// file per digest under dir, written atomically (temp file + rename, no
// fsync), verified by checksum on load, and bounded to cap entries —
// evictions from the memory LRU are mirrored here, and a startup prune
// enforces the bound against leftovers from previous processes.
//
// A restarted replica pointed at the same directory warm-starts its share
// of the keyspace: the first request for a previously computed digest is
// a disk hit, not a re-simulation. A process crash loses nothing (the
// page cache outlives the process); an OS crash or power loss can leave
// the most recently spilled files empty or torn under their final names,
// and each such file is one verified miss: load rejects it by checksum,
// counts it, deletes it, and the scenario re-simulates.
type diskCache struct {
	dir string
	cap int

	hits        atomic.Int64
	misses      atomic.Int64
	loadErrors  atomic.Int64
	spillErrors atomic.Int64

	mu    sync.Mutex // serializes writes, removals, and the bound
	count int64      //relief:guardedby mu — spill files currently on disk (read via entries)
}

// openDiskCache prepares dir as a spill directory bounded to cap entries
// and returns the cache plus the number of restored (pre-existing) spill
// files.
func openDiskCache(dir string, cap int) (*diskCache, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d := &diskCache{dir: dir, cap: cap}
	d.mu.Lock()
	defer d.mu.Unlock()
	n, err := d.pruneLocked()
	if err != nil {
		return nil, 0, err
	}
	d.count = int64(n)
	return d, n, nil
}

// entries reports the current spill-file count (metrics gauge).
func (d *diskCache) entries() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key+spillExt)
}

// validSpillKey accepts exactly the digests Request.Digest produces
// (lowercase hex sha256), which also makes the key safe to use as a file
// name: no separators, no traversal.
func validSpillKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// store spills one result write-through and deletes the spill files of
// the memory LRU's evicted keys: it encodes and checksums outside the
// lock, then, under one d.mu acquisition, unlinks the evicted files and
// writes the result's file through atomicWrite. Evictions go first, so
// the over-cap safety prune (which works by recency, not LRU order) has
// nothing left to do.
// Failures are counted, never fatal — the entry simply stays memory-only.
func (d *diskCache) store(key string, res *Result, evicted ...string) {
	env, err := encodeSpill(key, res)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removeLocked(evicted)
	if !validSpillKey(key) {
		return
	}
	if err != nil {
		d.spillErrors.Add(1)
		return
	}
	final := d.path(key)
	_, statErr := os.Stat(final)
	fresh := errors.Is(statErr, fs.ErrNotExist)
	if err := atomicWrite(d.dir, final, env); err != nil {
		d.spillErrors.Add(1)
		return
	}
	if fresh {
		d.count++
		if d.cap > 0 && d.count > int64(d.cap) {
			if n, err := d.pruneLocked(); err == nil {
				d.count = int64(n)
			}
		}
	}
}

// atomicWrite writes data to a temp file in dir and renames it over
// final, so no reader ever sees a partial file under the final name. It
// does not fsync: after an OS crash the renamed file may come back empty
// or torn, which the envelope's checksum turns into a counted miss.
func atomicWrite(dir, final string, data []byte) error {
	f, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// load reads one spilled result back, verifying the envelope's schema,
// digest, and checksum. A missing file is a miss; a file that fails
// verification is counted as a load error and deleted so it can never be
// served (the scenario re-simulates instead).
func (d *diskCache) load(key string) (*Result, bool) {
	if !validSpillKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		d.misses.Add(1)
		return nil, false
	}
	if err != nil {
		d.loadErrors.Add(1)
		return nil, false
	}
	res, ok := decodeSpill(key, b)
	if !ok {
		d.loadErrors.Add(1)
		d.remove(key)
		return nil, false
	}
	d.hits.Add(1)
	// Freshen the file so the startup prune treats live entries as recent.
	now := time.Now()
	os.Chtimes(d.path(key), now, now)
	return res, true
}

// errSpillKey rejects a key that Request.Digest cannot produce.
var errSpillKey = errors.New("serve: invalid spill key")

// encodeSpill wraps one result in its checksummed spill envelope. The
// envelope is assembled around the one marshalled payload, byte for byte
// what json.Marshal(spillEnvelope{...}) writes: the key is plain hex and
// the payload is already compact, HTML-escaped JSON, so re-marshalling
// would only scan it again.
func encodeSpill(key string, res *Result) ([]byte, error) {
	if !validSpillKey(key) {
		return nil, errSpillKey
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	const (
		head = `{"schema":"` + SpillSchema + `","digest":"`
		mid  = `","sum":"`
		tail = `","payload":`
	)
	b := make([]byte, 0, len(head)+len(key)+len(mid)+hex.EncodedLen(len(sum))+len(tail)+len(payload)+1)
	b = append(b, head...)
	b = append(b, key...)
	b = append(b, mid...)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, tail...)
	b = append(b, payload...)
	return append(b, '}'), nil
}

// decodeSpill verifies and unwraps one spill file's bytes.
func decodeSpill(key string, b []byte) (*Result, bool) {
	if !validSpillKey(key) {
		return nil, false
	}
	var env spillEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, false
	}
	if env.Schema != SpillSchema || env.Digest != key {
		return nil, false
	}
	sum := sha256.Sum256(env.Payload)
	if env.Sum != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(env.Payload, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// remove deletes the spill files for the given keys (mirroring memory-LRU
// evictions). Unknown keys are no-ops.
func (d *diskCache) remove(keys ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.removeLocked(keys)
}

// removeLocked is remove's body. Caller holds d.mu.
func (d *diskCache) removeLocked(keys []string) {
	for _, key := range keys {
		if !validSpillKey(key) {
			continue
		}
		if err := os.Remove(d.path(key)); err == nil {
			d.count--
		}
	}
}

// pruneLocked enforces the entry bound: keep the cap most recently
// touched spill files, delete the rest (oldest first), and drop any
// stranded temp files from interrupted writes. Returns the surviving
// count. Caller holds d.mu.
func (d *diskCache) pruneLocked() (int, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, err
	}
	type spillFile struct {
		name string
		mod  time.Time
	}
	var files []spillFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !validSpillKey(stripExt(name)) {
			// Interrupted-write temp files are garbage after a crash.
			if filepath.Ext(name) != spillExt {
				os.Remove(filepath.Join(d.dir, name))
			}
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, spillFile{name: name, mod: info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.After(files[j].mod) // newest first
		}
		return files[i].name < files[j].name
	})
	kept := len(files)
	if d.cap > 0 && kept > d.cap {
		for _, f := range files[d.cap:] {
			os.Remove(filepath.Join(d.dir, f.name))
		}
		kept = d.cap
	}
	return kept, nil
}

// stripExt returns name without the spill extension, or "" when the name
// does not carry it.
func stripExt(name string) string {
	if filepath.Ext(name) != spillExt {
		return ""
	}
	return name[:len(name)-len(spillExt)]
}
