// Package dram models a bank-level LPDDR5 channel with an FR-FCFS memory
// controller — the contention substrate the paper's motivation rests on
// (§I: "contention at the memory controller"). It implements mem.Server,
// so it drops into the interconnect in place of the fixed-bandwidth DRAM
// resource.
//
// The model decomposes requests into 64-byte bursts, tracks per-bank open
// rows, charges precharge+activate on row misses, and schedules bursts
// with either FR-FCFS (row hits first, then oldest — Rixner et al., the
// policy the paper cites) or plain FCFS. It is transaction-level: command
// and data bus are unified, so bank-level parallelism is approximated
// rather than cycle-accurate.
package dram

import (
	"fmt"

	"relief/internal/sim"
)

// Policy selects the controller's scheduling discipline.
type Policy uint8

// Controller scheduling policies.
const (
	FRFCFS Policy = iota // row hits first, then oldest
	FCFS                 // strictly oldest first
)

func (p Policy) String() string {
	if p == FCFS {
		return "fcfs"
	}
	return "fr-fcfs"
}

// Config holds device and controller parameters.
type Config struct {
	// BurstBytes is the data moved per burst (BL32 on a 16-bit channel =
	// 64 B, paper Table VI).
	BurstBytes int64
	// PageBytes is the row-buffer size per bank.
	PageBytes int64
	// Banks is the number of banks in the channel.
	Banks int
	// TBurst is the data-bus occupancy of one burst (64 B at 6400 MT/s x
	// 16 bit = 5 ns).
	TBurst sim.Time
	// TGap is the per-burst command/bus overhead that calibrates achieved
	// bandwidth below the pin peak.
	TGap sim.Time
	// TRP and TRCD are precharge and activate latencies charged on row
	// misses.
	TRP, TRCD sim.Time
	// Policy selects FR-FCFS or FCFS scheduling.
	Policy Policy
	// WindowBursts caps how far FR-FCFS looks for a row hit (a real
	// controller's finite transaction queue; 0 = unlimited).
	WindowBursts int
	// Channels adds address-interleaved channels, each with its own banks
	// and data bus (0 or 1 = single channel, the paper's platform).
	Channels int
	// TREFI and TRFC model refresh: every TREFI the channel stalls for
	// TRFC and all rows close (0 disables refresh).
	TREFI, TRFC sim.Time
}

// LPDDR5 returns the paper platform's channel (Table VI: LPDDR5-6400,
// one 16-bit channel, BL32) with TGap calibrated so a single sequential
// DMA stream achieves ~6.4 GB/s — the effective bandwidth the paper's
// Table II memory times imply — while contending random streams drop
// below that.
func LPDDR5() Config {
	return Config{
		BurstBytes:   64,
		PageBytes:    2048,
		Banks:        16,
		TBurst:       5 * sim.Nanosecond,
		TGap:         3300 * sim.Picosecond,
		TRP:          18 * sim.Nanosecond,
		TRCD:         18 * sim.Nanosecond,
		Policy:       FRFCFS,
		WindowBursts: 64,
		Channels:     1,
		TREFI:        3900 * sim.Nanosecond,
		TRFC:         180 * sim.Nanosecond,
	}
}

// Controller is a (possibly multi-channel) memory controller. It
// implements mem.Server.
type Controller struct {
	k    *sim.Kernel
	cfg  Config
	name string

	channels []*channel
	cursor   int64 // synthetic address allocator for incoming requests
	// pageBursts is the bursts in a whole page (PageBytes/BurstBytes).
	pageBursts int64

	// fault, if set, returns an injected error stall per request.
	fault func(n int64) sim.Time

	bytes int64

	// free holds request records whose done has returned, for reuse.
	free []*request

	// Stats.
	RowHits, RowMisses int64
	Refreshes          int64
}

// channel is one independent data bus with its own banks. Its queue holds
// page segments, not bursts: a 4 KiB DMA chunk is 64 bursts but only two
// or three segments, so enqueueing, window scans and removal cost per
// page touched rather than per 64 bytes. The queue is a slice with a head
// offset: FR-FCFS removes from within the scheduling window, so removal
// shifts at most a window's worth of entries instead of re-slicing the
// whole queue (which would be quadratic under deep backlogs). bursts
// counts the bursts queued in queue[head:], the unit QueueLen and the
// FR-FCFS window are measured in.
type channel struct {
	idx         int
	queue       []segment
	head        int
	bursts      int
	banks       []bank
	serving     bool
	busyAcc     sim.Time
	busySince   sim.Time
	nextRefresh sim.Time

	// Virtual-run state: the request whose completion ends the current run
	// (nil if the run ended for scheduling reasons), when the run ends, and
	// the cached event callbacks (allocated once per channel).
	fin     *request
	runEnd  sim.Time
	runDone func()
	hop     func()
}

// push appends a segment of n bursts.
//
//relief:hotpath
func (ch *channel) push(s segment, n int32) {
	s.n = n
	ch.queue = append(ch.queue, s) //lint:allow hotalloc the queue array is reused once drained, so it grows only to the channel's peak depth
	ch.bursts += int(n)
}

// consume removes the segment at absolute index i (i >= ch.head) by
// shifting the [head, i) prefix right by one, so the cost is O(i-head),
// bounded by the scheduling window.
//
//relief:hotpath
func (ch *channel) consume(i int) {
	ch.bursts -= int(ch.queue[i].n)
	copy(ch.queue[ch.head+1:i+1], ch.queue[ch.head:i])
	ch.queue[ch.head] = segment{} // drop the request pointer for GC
	ch.head++
	switch {
	case ch.head == len(ch.queue):
		// Drained: appends reuse the array from its start.
		ch.queue = ch.queue[:0]
		ch.head = 0
	case ch.head > 1024 && ch.head*2 > len(ch.queue):
		// Compact once the dead prefix dominates, to bound memory.
		m := copy(ch.queue, ch.queue[ch.head:])
		for j := m; j < len(ch.queue); j++ {
			ch.queue[j] = segment{}
		}
		ch.queue = ch.queue[:m]
		ch.head = 0
	}
}

type bank struct {
	openRow int64 // -1 = closed
	valid   bool
}

// segment is n consecutive bursts of one request that fall in one page,
// so they share a channel, bank and row. serve takes a picked segment
// whole.
type segment struct {
	row  int64
	req  *request
	bank int32
	n    int32
	// extra is an injected transient-error stall (fault injection),
	// carried by the request's first burst. It is part of that burst's own
	// service cost, so virtual runs price it identically whether the
	// burst resolves ahead of time or at real time.
	extra sim.Time
}

// request tracks one Enqueue across the channels its bursts interleave
// over. Each channel's virtual run may resolve its own share of bursts
// ahead of real time, so completion is split: shares[ch] counts this
// channel's unresolved bursts (safe to decrement virtually), and
// outstanding counts channels whose share is still open — it is only
// decremented by the real run-completion event, so done fires at the true
// service time of the request's last burst. Records are recycled through
// the controller's free list once done has returned.
type request struct {
	shares      []int32
	outstanding int32
	done        func()
}

// NewController builds a controller on the kernel.
func NewController(k *sim.Kernel, name string, cfg Config) *Controller {
	// A page must hold whole bursts: Enqueue steps from one page to the
	// next by PageBytes/BurstBytes bursts.
	if cfg.BurstBytes <= 0 || cfg.PageBytes <= 0 || cfg.Banks <= 0 || cfg.PageBytes%cfg.BurstBytes != 0 {
		panic("dram: invalid geometry")
	}
	// A refresh must end before the next one is due, or each burst's stall
	// spans more refresh intervals than the last and a request never ends.
	if cfg.TREFI > 0 && cfg.TRFC >= cfg.TREFI {
		panic("dram: tRFC must be shorter than tREFI")
	}
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	c := &Controller{k: k, cfg: cfg, name: name, pageBursts: cfg.PageBytes / cfg.BurstBytes}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{idx: i, banks: make([]bank, cfg.Banks)}
		if cfg.TREFI > 0 {
			ch.nextRefresh = cfg.TREFI
		}
		// runDone materializes a finished burst run: settle the share whose
		// completion ended it (firing the request's done if this was its
		// last open channel), then resume scheduling against the real
		// queue — which by now includes every request that arrived while
		// the run was in flight.
		ch.runDone = func() {
			if f := ch.fin; f != nil {
				ch.fin = nil
				f.outstanding--
				if f.outstanding == 0 {
					f.done()
					f.done = nil
					c.free = append(c.free, f)
				}
			}
			c.serve(ch)
		}
		// hop re-schedules runDone from the last burst's pick time so the
		// completion event is born exactly when the reference would have
		// created it, preserving same-tick ordering against foreign events.
		ch.hop = func() { c.k.At(ch.runEnd, ch.runDone) }
		c.channels = append(c.channels, ch)
	}
	return c
}

// Reset returns the controller to its state when built, for another
// simulation on the same kernel: every bank closed, queues and statistics
// empty, the address cursor and refresh schedule at their start, no fault
// hook. It keeps the channels' queue and bank arrays, their bound event
// callbacks and the free request records. A request still in flight is
// dropped, not finished: the kernel's Reset drops its events.
func (c *Controller) Reset() {
	for _, ch := range c.channels {
		clear(ch.queue)
		clear(ch.banks)
		*ch = channel{idx: ch.idx, queue: ch.queue[:0], banks: ch.banks, nextRefresh: max(c.cfg.TREFI, 0), runDone: ch.runDone, hop: ch.hop}
	}
	*c = Controller{k: c.k, cfg: c.cfg, name: c.name, channels: c.channels, pageBursts: c.pageBursts, free: c.free}
}

// Name implements mem.Server.
func (c *Controller) Name() string { return c.name }

// ServiceTime implements mem.Server: the unloaded, all-row-hit service
// time (used for path pipelining estimates).
func (c *Controller) ServiceTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	bursts := (n + c.cfg.BurstBytes - 1) / c.cfg.BurstBytes
	return sim.Time(bursts) * (c.cfg.TBurst + c.cfg.TGap)
}

// BusyTime implements mem.Server: the union over channels is approximated
// by the maximum per-channel busy time.
func (c *Controller) BusyTime() sim.Time {
	var max sim.Time
	for _, ch := range c.channels {
		b := ch.busyAcc
		if ch.serving {
			b += c.k.Now() - ch.busySince
		}
		if b > max {
			max = b
		}
	}
	return max
}

// BytesServed implements mem.Server.
func (c *Controller) BytesServed() int64 { return c.bytes }

// QueueLen reports the number of queued bursts across channels.
func (c *Controller) QueueLen() int {
	n := 0
	for _, ch := range c.channels {
		n += ch.bursts
	}
	return n
}

// Channels returns the configured channel count.
func (c *Controller) Channels() int { return len(c.channels) }

// ChannelQueueLen reports the bursts queued on channel i.
func (c *Controller) ChannelQueueLen(i int) int { return c.channels[i].bursts }

// ChannelBusyTime returns channel i's cumulative data-bus busy time,
// including the open serving period — the numerator of the channel's
// burst-run utilisation.
func (c *Controller) ChannelBusyTime(i int) sim.Time {
	ch := c.channels[i]
	b := ch.busyAcc
	if ch.serving {
		b += c.k.Now() - ch.busySince
	}
	return b
}

// RowHitRate returns the fraction of bursts that hit an open row.
func (c *Controller) RowHitRate() float64 {
	total := c.RowHits + c.RowMisses
	if total == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(total)
}

// SetFault installs a fault hook consulted once per Enqueue (in request
// arrival order, so a seeded injector stays deterministic); a returned
// stall is charged to the request's first burst. Pass nil to remove.
func (c *Controller) SetFault(fn func(n int64) sim.Time) { c.fault = fn }

// Enqueue implements mem.Server: the request is laid out at the next
// contiguous synthetic addresses (each DMA chunk is a contiguous buffer
// slice), decomposed into bursts, and queued as one segment per page.
//
//relief:hotpath
func (c *Controller) Enqueue(n int64, done func()) {
	if n <= 0 {
		c.k.Schedule(0, done)
		return
	}
	base := c.cursor
	c.cursor += n
	var extra sim.Time
	if c.fault != nil {
		extra = c.fault(n)
	}
	nBursts := (n + c.cfg.BurstBytes - 1) / c.cfg.BurstBytes
	req := c.newRequest(done)
	// Shares must be fully counted before any channel starts serving: the
	// first append below can kick off a virtual run that resolves bursts
	// immediately.
	if len(c.channels) == 1 {
		req.shares[0] = int32(nBursts)
	} else {
		for p := c.firstPage(base, nBursts); p.i < nBursts; c.nextPage(&p, nBursts) {
			req.shares[p.ch] += int32(p.next - p.i)
		}
	}
	for _, s := range req.shares {
		if s > 0 {
			req.outstanding++
		}
	}
	for p := c.firstPage(base, nBursts); p.i < nBursts; c.nextPage(&p, nBursts) {
		ch := c.channels[p.ch]
		s := segment{bank: p.bank, row: p.row, req: req}
		if p.i == 0 {
			s.extra = extra
		}
		segBursts := int32(p.next - p.i)
		if !ch.serving {
			// An idle channel starts serving with only the segment's first
			// burst queued, as if bursts arrived one at a time: the rest
			// joins the queue after the kick-off run is planned, so that
			// run ends after its first burst and fires the same events.
			ch.push(s, 1)
			ch.serving = true
			ch.busySince = c.k.Now()
			c.catchUpRefresh(ch)
			c.serve(ch)
			s.extra = 0
			segBursts--
		}
		if segBursts > 0 {
			ch.push(s, segBursts)
		}
	}
	c.bytes += n
}

// pageSpan is one page of a request: the request's bursts [i, next) that
// fall in it, and the page's channel, bank and row. Pages interleave over
// channels first, then banks, then rows.
type pageSpan struct {
	i, next int64
	ch      int
	bank    int32
	row     int64
}

// firstPage returns the page holding the first burst of a request of
// nBursts bursts laid out at base.
func (c *Controller) firstPage(base, nBursts int64) pageSpan {
	b := c.cfg.BurstBytes
	page := base / c.cfg.PageBytes
	nCh := int64(len(c.channels))
	inCh := page / nCh
	return pageSpan{
		next: min(((page+1)*c.cfg.PageBytes-base+b-1)/b, nBursts),
		ch:   int(page % nCh),
		bank: int32(inCh % int64(c.cfg.Banks)),
		row:  inCh / int64(c.cfg.Banks),
	}
}

// nextPage steps p to the request's next page. Every page after the
// first starts at a page boundary, so it holds a whole page of bursts
// unless the request ends inside it.
func (c *Controller) nextPage(p *pageSpan, nBursts int64) {
	p.i = p.next
	p.next = min(p.next+c.pageBursts, nBursts)
	if p.ch++; p.ch == len(c.channels) {
		p.ch = 0
		if p.bank++; int(p.bank) == c.cfg.Banks {
			p.bank = 0
			p.row++
		}
	}
}

// newRequest takes a request record from the free list, or makes one.
//
//relief:hotpath
func (c *Controller) newRequest(done func()) *request {
	var r *request
	if n := len(c.free); n > 0 {
		r = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		r = &request{shares: make([]int32, len(c.channels))} //lint:allow hotalloc free-list refill: records return on completion, so this runs only until the list covers the peak number of requests in flight
	}
	r.done = done
	return r
}

// catchUpRefresh advances the refresh schedule over the idle period ending
// now. Refreshes that fell in the gap happened while no traffic was
// waiting, so they stall nothing and are not charged (or counted) — but
// they did close every row, so the next pick cannot hit a row opened
// before the gap. Without this, serve's lazy boundary loop would bill the
// whole backlog of idle-time refreshes to the first burst after the gap,
// inflating its latency and the channel's busy time by tRFC per missed
// interval.
func (c *Controller) catchUpRefresh(ch *channel) {
	if c.cfg.TREFI == 0 {
		return
	}
	now := c.k.Now()
	if ch.nextRefresh > now {
		return
	}
	missed := (now-ch.nextRefresh)/c.cfg.TREFI + 1
	ch.nextRefresh += missed * c.cfg.TREFI
	for j := range ch.banks {
		ch.banks[j].valid = false
	}
}

// pick selects the absolute queue index of the segment holding the next
// burst per the scheduling policy; that burst is the segment's first.
//
//relief:hotpath
func (c *Controller) pick(ch *channel) int {
	if ch.bursts == 0 {
		return -1
	}
	if c.cfg.Policy == FCFS {
		return ch.head
	}
	// FR-FCFS: first row hit within the transaction window, else oldest.
	// The window counts bursts; a segment is inside it if its first burst
	// is, and all of a segment's bursts hit or miss together.
	window := ch.bursts
	if c.cfg.WindowBursts > 0 && window > c.cfg.WindowBursts {
		window = c.cfg.WindowBursts
	}
	for i, seen := ch.head, 0; seen < window; i++ {
		s := &ch.queue[i]
		bk := &ch.banks[s.bank]
		if bk.valid && bk.openRow == s.row {
			return i
		}
		seen += int(s.n)
	}
	return ch.head
}

// serve runs the channel's scheduling loop. Rather than paying one event
// per burst, it resolves a run of consecutive scheduling decisions in a
// single virtual pass: the clock variable vnow advances burst by burst for
// as long as the pick outcome provably cannot be altered by requests that
// arrive while the run is in flight. Under FCFS the head of the queue is
// immune to arrivals; under FR-FCFS a row hit among already-queued bursts
// always outranks later arrivals, because arrivals append at higher
// indices and the window scan proceeds in index order. The run ends at the
// first request completion (its done callback can enqueue new work) or at
// the first pick an arrival could win (an FR-FCFS fallback-to-oldest, or a
// drained queue); a single event then materializes the run's outcome.
//
// A picked segment is served whole: once one of its bursts is served its
// row is open, and no other bank's row changes, so it stays the window's
// first row hit until it is empty. Its first burst is priced on its own:
// it may cross a refresh boundary, miss, or carry an injected stall. Every
// later burst picked strictly before the channel's next refresh is a row
// hit costing TBurst+TGap, so that stretch is priced in closed form; the
// first burst picked at or past the boundary goes back through the
// per-burst path, which refreshes and misses. A segment thus costs one
// step per refresh boundary it crosses, not one per burst.
//
// Per channel this reproduces a per-burst controller, one event per burst,
// exactly. The one relaxation is cross-channel: two requests completing at
// the same tick on different channels may deliver their callbacks in
// either order (the paper platform is single-channel, where no such tie
// can occur).
//
//relief:hotpath
func (c *Controller) serve(ch *channel) {
	start := c.k.Now()
	vnow := start
	lastPick := start
	hit := c.cfg.TBurst + c.cfg.TGap
	ch.fin = nil
	for {
		i := c.pick(ch)
		if i < 0 {
			if vnow == start {
				ch.serving = false
				ch.busyAcc += start - ch.busySince
				return
			}
			// Drained mid-run: arrivals before runEnd are resolved by the
			// run event's serve call, exactly when the reference would.
			break
		}
		if vnow > start && c.cfg.Policy != FCFS {
			// A continuation pick is arrival-immune only if it is a row
			// hit; a fallback-to-oldest could lose to a hit that arrives
			// mid-run, so the decision must be replayed at real time.
			b := &ch.queue[i]
			bk := &ch.banks[b.bank]
			if !bk.valid || bk.openRow != b.row {
				break
			}
		}
		s := &ch.queue[i]
		req, row, extra, n := s.req, s.row, s.extra, int(s.n)
		bk := &ch.banks[s.bank]
		for left := n; left > 0; {
			lastPick = vnow
			cost := hit + extra
			extra = 0
			// Refresh: when traffic crosses a tREFI boundary, the channel
			// stalls for tRFC and every row closes. Idle periods advance
			// the schedule without cost (rows would be cold anyway). As in
			// the reference, the boundary check happens after the pick, so
			// an overdue refresh can turn a picked "hit" into a charged
			// miss.
			if c.cfg.TREFI > 0 {
				for ch.nextRefresh <= vnow {
					ch.nextRefresh += c.cfg.TREFI
					cost += c.cfg.TRFC
					c.Refreshes++
					for j := range ch.banks {
						ch.banks[j].valid = false
					}
				}
			}
			if !bk.valid || bk.openRow != row {
				if bk.valid {
					cost += c.cfg.TRP // precharge the open row
				}
				cost += c.cfg.TRCD // activate the new row
				bk.openRow = row
				bk.valid = true
				c.RowMisses++
			} else {
				c.RowHits++
			}
			vnow += cost
			left--
			// The row is open now; the bursts picked before the next
			// refresh, at vnow, vnow+hit, ..., are all hits.
			k := left
			if c.cfg.TREFI > 0 {
				switch {
				case ch.nextRefresh <= vnow:
					k = 0
				case hit > 0:
					k = min(k, int((ch.nextRefresh-vnow+hit-1)/hit))
				}
			}
			if k > 0 {
				c.RowHits += int64(k)
				lastPick = vnow + sim.Time(k-1)*hit
				vnow += sim.Time(k) * hit
				left -= k
			}
		}
		ch.consume(i)
		req.shares[ch.idx] -= int32(n)
		if req.shares[ch.idx] == 0 {
			ch.fin = req
			break
		}
	}
	ch.runEnd = vnow
	if lastPick == start {
		// Single-burst run: the event is created at the same time and in
		// the same call position as the reference's completion event.
		c.k.At(vnow, ch.runDone)
	} else {
		// Multi-burst run: the reference creates the final completion
		// event at the last burst's pick time. Hop there first so the
		// materializing event's born time — and with it the same-tick
		// dispatch order against foreign events — matches bit-for-bit.
		c.k.At(lastPick, ch.hop)
	}
}

func (c *Controller) String() string {
	return fmt.Sprintf("dram(%s, %d banks, hit-rate %.2f)", c.cfg.Policy, c.cfg.Banks, c.RowHitRate())
}
