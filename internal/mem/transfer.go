package mem

import "relief/internal/sim"

// DefaultChunkBytes is the granularity at which transfers are decomposed
// before being offered to resources. 4 KiB approximates a DMA burst train:
// small enough that concurrent streams share bandwidth fairly, large enough
// to keep event counts low.
const DefaultChunkBytes = 4096

// TransferResult describes a completed transfer for bandwidth bookkeeping.
type TransferResult struct {
	Bytes int64
	Start sim.Time
	End   sim.Time
	// Corrupt marks a payload that arrived with a CRC failure (fault
	// injection); the DMA engine is expected to re-run the transfer.
	Corrupt bool
}

// AchievedBandwidth returns the end-to-end bandwidth of the transfer in
// bytes per second.
func (t TransferResult) AchievedBandwidth() float64 {
	d := t.End - t.Start
	if d <= 0 {
		return 0
	}
	return float64(t.Bytes) / d.Seconds()
}

// transfer is the chunk-wise pipelining state of one in-flight transfer.
// Completions at every resource are FIFO, so each stage needs only a
// counter of processed chunks and a single reusable done callback, not one
// closure per chunk.
//
// Records are recycled: a finished transfer goes back on the free list of
// its home (the first Resource on its path, so the list belongs to one
// simulation), and every per-stage slice, bound callback and the embedded
// claim keep their capacity for the next transfer drawn from that list.
// In steady state starting, claiming, materializing and finishing a
// transfer allocates nothing.
type transfer struct {
	k       *sim.Kernel
	home    *Resource // owner of the free list this record returns to
	path    []Server
	n       int64
	nChunks int
	start   sim.Time
	done    func(TransferResult)
	corrupt bool // injected CRC failure, reported in TransferResult

	next      []int    // per stage: index of the chunk whose completion fires next
	stageDone []func() // per stage: the chunk-completion callback, bound once
	beginFn   func()   // bound t.begin, the setup-event callback
	cl        claim    // analytic claim; a transfer holds at most one
	freeNext  *transfer
}

// newTransfer allocates a record and binds its callbacks. Only a free-list
// miss reaches here.
func newTransfer(k *sim.Kernel, home *Resource) *transfer {
	t := &transfer{k: k, home: home}
	t.beginFn = t.begin
	t.cl.k = k
	t.cl.t = t
	t.cl.completeFn = t.cl.complete
	return t
}

// acquire pops a record from the free list of the path's home resource, or
// allocates one on a miss (or for a path without a Resource).
//
//relief:hotpath
func acquire(k *sim.Kernel, path []Server) *transfer {
	var home *Resource
	for _, srv := range path {
		if r, ok := srv.(*Resource); ok {
			home = r
			break
		}
	}
	if home == nil || home.free == nil {
		return newTransfer(k, home) //lint:allow hotalloc free-list refill; the list grows to the peak of concurrent transfers per home
	}
	t := home.free
	home.free = t.freeNext
	t.freeNext = nil
	return t
}

// grow extends the record's per-stage slices (and binds the extra stage
// callbacks) for an S-stage path. It runs only when a record first meets a
// path longer than any it carried before.
func (t *transfer) grow(S int) {
	for s := len(t.stageDone); s < S; s++ {
		t.stageDone = append(t.stageDone, func() { t.advance(s) })
	}
	t.next = make([]int, S)
	t.cl.grow(S)
}

// release returns the record to its home's free list, dropping references
// the next transfer does not share.
//
//relief:hotpath
func (t *transfer) release() {
	t.path = nil
	t.done = nil
	if t.home != nil {
		t.freeNext = t.home.free
		t.home.free = t
	}
}

// chunkSize returns the byte count of chunk i (the tail chunk is short).
//
//relief:hotpath
func (t *transfer) chunkSize(i int) int64 {
	if i == t.nChunks-1 {
		return t.n - int64(i)*DefaultChunkBytes
	}
	return DefaultChunkBytes
}

// begin fires once the front-end setup latency has elapsed: claim the path
// analytically if it is idle, otherwise offer the first chunk.
//
//relief:hotpath
func (t *transfer) begin() {
	if t.n <= 0 || len(t.path) == 0 {
		t.finish()
		return
	}
	if tryClaim(t) {
		return
	}
	t.path[0].Enqueue(t.chunkSize(0), t.stageDone[0])
}

// advance moves the next chunk out of stage s. When the last chunk leaves
// the last stage the transfer is complete. This is the per-chunk DMA
// pipeline step; it must not allocate. finish comes last: its done
// callback may start a transfer that reuses this record.
//
//relief:hotpath
func (t *transfer) advance(s int) {
	i := t.next[s]
	t.next[s]++
	last := s+1 == len(t.path)
	if !last {
		t.path[s+1].Enqueue(t.chunkSize(i), t.stageDone[s+1])
	}
	if s == 0 && i+1 < t.nChunks {
		t.path[0].Enqueue(t.chunkSize(i+1), t.stageDone[0])
	}
	if last && i == t.nChunks-1 {
		t.finish()
	}
}

// finish reports the transfer's timing. The record goes back on the free
// list before done runs, so done must be read out first: a transfer started
// from inside done may reuse this very record.
//
//relief:hotpath
func (t *transfer) finish() {
	done := t.done
	res := TransferResult{Bytes: t.n, Start: t.start, End: t.k.Now(), Corrupt: t.corrupt}
	t.release()
	done(res)
}

// FaultInjector perturbs transfers at the DMA front end. Implemented by
// fault.Injector; the interface keeps mem free of a fault dependency.
type FaultInjector interface {
	// Transfer returns an extra front-end stall and whether the payload
	// arrives corrupted for a transfer of n bytes.
	Transfer(n int64) (stall sim.Time, corrupt bool)
}

// StartTransferFI is StartTransfer with optional fault injection: the
// injected stall extends the front-end setup latency (so downstream claim
// coalescing and pipelining see a plain, later-starting transfer), and a
// corruption verdict is delivered through TransferResult.Corrupt. A nil
// injector is exactly StartTransfer.
func StartTransferFI(k *sim.Kernel, path []Server, n int64, setup sim.Time, fi FaultInjector, done func(TransferResult)) {
	corrupt := false
	if fi != nil {
		var stall sim.Time
		stall, corrupt = fi.Transfer(n)
		setup += stall
	}
	startTransfer(k, path, n, setup, corrupt, done)
}

// StartTransfer moves n bytes through the ordered resource path, chunk by
// chunk, with store-and-forward pipelining: chunk i enters stage s+1 as soon
// as stage s finishes serving it, and chunk i+1 enters stage s at the same
// moment. setup is a fixed front-end latency (DMA programming, request
// routing) charged once before the first chunk. done receives the transfer's
// timing when the final chunk drains from the last stage.
//
// If every stage on the path is idle when the first chunk would issue, the
// chunk loop is replaced by an analytic claim (coalesce.go) that computes
// the identical pipeline schedule in closed form and fires a single
// completion event; the claim reverts to chunk-wise service the moment any
// other stream touches the path.
//
// A transfer over an empty path (pure SPAD-local access) completes after
// setup alone. path is only read, never retained past done.
func StartTransfer(k *sim.Kernel, path []Server, n int64, setup sim.Time, done func(TransferResult)) {
	startTransfer(k, path, n, setup, false, done)
}

// startTransfer is StartTransfer with the corruption verdict of an
// injected fault already drawn.
//
//relief:hotpath
func startTransfer(k *sim.Kernel, path []Server, n int64, setup sim.Time, corrupt bool, done func(TransferResult)) {
	t := acquire(k, path)
	S := len(path)
	if len(t.stageDone) < S {
		t.grow(S) //lint:allow hotalloc per-stage slice growth, only for a path longer than any the record carried
	}
	t.next = t.next[:S]
	for s := range t.next {
		t.next[s] = 0
	}
	t.path = path
	t.n = n
	t.nChunks = int((n + DefaultChunkBytes - 1) / DefaultChunkBytes)
	t.start = k.Now()
	t.done = done
	t.corrupt = corrupt
	k.Schedule(setup, t.beginFn)
}
