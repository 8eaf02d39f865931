package dram

import "relief/internal/sim"

// refController is the controller as it was before the channel queue held
// page segments: one queue entry per 64-byte burst, one pick and one take
// per served burst. It is kept only as the differential tests' reference.
// By default it batches burst runs as Controller does
// (TestSegmentQueueMatchesBurstQueue); with perBurst set it ends every run
// after one burst, firing one event per burst
// (TestBurstRunMatchesPerBurstReference).
type refController struct {
	k        *sim.Kernel
	cfg      Config
	perBurst bool
	channels []*refChannel
	cursor   int64
	bytes    int64
	fault    func(n int64) sim.Time

	RowHits, RowMisses, Refreshes int64
}

type refChannel struct {
	idx         int
	queue       []refBurst
	head        int
	banks       []bank
	serving     bool
	busyAcc     sim.Time
	busySince   sim.Time
	nextRefresh sim.Time
	fin         *refRequest
	runEnd      sim.Time
	runDone     func()
	hop         func()
}

type refBurst struct {
	bank, row int64
	req       *refRequest
	extra     sim.Time
}

type refRequest struct {
	shares      []int32
	outstanding int32
	done        func()
}

func (ch *refChannel) pending() int { return len(ch.queue) - ch.head }

func (ch *refChannel) take(i int) refBurst {
	b := ch.queue[i]
	copy(ch.queue[ch.head+1:i+1], ch.queue[ch.head:i])
	ch.queue[ch.head] = refBurst{}
	ch.head++
	if ch.head > 1024 && ch.head*2 > len(ch.queue) {
		n := copy(ch.queue, ch.queue[ch.head:])
		for j := n; j < len(ch.queue); j++ {
			ch.queue[j] = refBurst{}
		}
		ch.queue = ch.queue[:n]
		ch.head = 0
	}
	return b
}

func newRefController(k *sim.Kernel, cfg Config) *refController {
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	c := &refController{k: k, cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		ch := &refChannel{idx: i, banks: make([]bank, cfg.Banks)}
		if cfg.TREFI > 0 {
			ch.nextRefresh = cfg.TREFI
		}
		ch.runDone = func() {
			if f := ch.fin; f != nil {
				ch.fin = nil
				f.outstanding--
				if f.outstanding == 0 {
					f.done()
				}
			}
			c.serve(ch)
		}
		ch.hop = func() { c.k.At(ch.runEnd, ch.runDone) }
		c.channels = append(c.channels, ch)
	}
	return c
}

func (c *refController) BusyTime() sim.Time {
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

func (c *refController) BytesServed() int64 { return c.bytes }

func (c *refController) QueueLen() int {
	n := 0
	for _, ch := range c.channels {
		n += ch.pending()
	}
	return n
}

func (c *refController) ChannelQueueLen(i int) int { return c.channels[i].pending() }

func (c *refController) SetFault(fn func(n int64) sim.Time) { c.fault = fn }

func (c *refController) Enqueue(n int64, done func()) {
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
	nBursts := int((n + c.cfg.BurstBytes - 1) / c.cfg.BurstBytes)
	req := &refRequest{shares: make([]int32, len(c.channels)), done: done}
	nCh := int64(len(c.channels))
	for i := 0; i < nBursts; i++ {
		page := (base + int64(i)*c.cfg.BurstBytes) / c.cfg.PageBytes
		req.shares[page%nCh]++
	}
	for _, s := range req.shares {
		if s > 0 {
			req.outstanding++
		}
	}
	for i := 0; i < nBursts; i++ {
		addr := base + int64(i)*c.cfg.BurstBytes
		page := addr / c.cfg.PageBytes
		pageInCh := page / nCh
		ch := c.channels[page%nCh]
		b := refBurst{
			bank: pageInCh % int64(c.cfg.Banks),
			row:  pageInCh / int64(c.cfg.Banks),
			req:  req,
		}
		if i == 0 {
			b.extra = extra
		}
		ch.queue = append(ch.queue, b)
		if !ch.serving {
			ch.serving = true
			ch.busySince = c.k.Now()
			c.catchUpRefresh(ch)
			c.serve(ch)
		}
	}
	c.bytes += n
}

func (c *refController) catchUpRefresh(ch *refChannel) {
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

func (c *refController) pick(ch *refChannel) int {
	if ch.pending() == 0 {
		return -1
	}
	if c.cfg.Policy == FCFS {
		return ch.head
	}
	window := ch.pending()
	if c.cfg.WindowBursts > 0 && window > c.cfg.WindowBursts {
		window = c.cfg.WindowBursts
	}
	for i := ch.head; i < ch.head+window; i++ {
		b := ch.queue[i]
		bk := &ch.banks[b.bank]
		if bk.valid && bk.openRow == b.row {
			return i
		}
	}
	return ch.head
}

func (c *refController) serve(ch *refChannel) {
	start := c.k.Now()
	vnow := start
	lastPick := start
	ch.fin = nil
	for {
		i := c.pick(ch)
		if i < 0 {
			if vnow == start {
				ch.serving = false
				ch.busyAcc += start - ch.busySince
				return
			}
			break
		}
		if vnow > start && c.cfg.Policy != FCFS {
			b := &ch.queue[i]
			bk := &ch.banks[b.bank]
			if !bk.valid || bk.openRow != b.row {
				break
			}
		}
		lastPick = vnow
		b := ch.take(i)
		cost := c.cfg.TBurst + c.cfg.TGap + b.extra
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
		bk := &ch.banks[b.bank]
		if !bk.valid || bk.openRow != b.row {
			if bk.valid {
				cost += c.cfg.TRP
			}
			cost += c.cfg.TRCD
			bk.openRow = b.row
			bk.valid = true
			c.RowMisses++
		} else {
			c.RowHits++
		}
		vnow += cost
		b.req.shares[ch.idx]--
		if b.req.shares[ch.idx] == 0 {
			ch.fin = b.req
			break
		}
		if c.perBurst {
			break
		}
	}
	ch.runEnd = vnow
	if lastPick == start {
		c.k.At(vnow, ch.runDone)
	} else {
		c.k.At(lastPick, ch.hop)
	}
}
