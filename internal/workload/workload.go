// Package workload builds the paper's five benchmark DAGs (Fig. 1,
// Table V): Canny edge detection, Richardson-Lucy deblur, GRU, Harris
// corner detection, and LSTM, plus the application-mix enumeration for the
// four contention levels (§IV-C).
//
// The DAG shapes are reconstructed from the algorithms and validated
// against the paper's per-application compute totals (Table II): Deblur
// matches exactly (15610.6 µs), Canny/Harris/GRU/LSTM within 0.3%.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"relief/internal/accel"
	"relief/internal/graph"
	"relief/internal/sim"
)

// App identifies a benchmark application.
type App int

// The five benchmarks, in the paper's symbol order (C, D, G, H, L).
const (
	Canny App = iota
	Deblur
	GRU
	Harris
	LSTM
	NumApps
)

var appMeta = [NumApps]struct {
	name     string
	sym      string
	deadline sim.Time
}{
	Canny:  {"canny", "C", ms(16.6)},
	Deblur: {"deblur", "D", ms(16.6)},
	GRU:    {"gru", "G", ms(7)},
	Harris: {"harris", "H", ms(16.6)},
	LSTM:   {"lstm", "L", ms(7)},
}

func ms(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }

// Name returns the application's lowercase name.
func (a App) Name() string { return appMeta[a].name }

// Sym returns the application's single-letter symbol.
func (a App) Sym() string { return appMeta[a].sym }

// Deadline returns the application deadline (Table V: vision at 60 FPS =
// 16.6 ms; RNNs at 7 ms following prior work).
func (a App) Deadline() sim.Time { return appMeta[a].deadline }

func (a App) String() string { return a.Name() }

// BySym resolves a single-letter symbol to an App.
func BySym(sym byte) (App, error) {
	for a := App(0); a < NumApps; a++ {
		if appMeta[a].sym[0] == sym {
			return a, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown application symbol %q", string(sym))
}

// Buffer sizes for the 128x128 working set (paper §IV-B: accelerators sized
// for 128x128 inputs with double-buffered output).
const (
	frameBytes = 128 * 128 * 4 // float32 plane
	rgbBytes   = 128 * 128 * 3 // 8-bit RGB
	rawBytes   = 128 * 128     // 8-bit Bayer mosaic
	maskBytes  = 128 * 128     // 8-bit mask / packed direction
	// RNN operands are 128x128 batched matrices (hidden size 128, batch
	// 128), which is what the paper's elem-matrix memory times imply.
	matBytes    = 128 * 128 * 4
	weightBytes = 128 * 128 * 4 // one 128x128 weight matrix, DRAM-resident
)

// templates holds each application's finalized DAG, built once per
// process on first use and never submitted: Build hands out clones.
var templates [NumApps]struct {
	once sync.Once
	d    *graph.DAG
	err  error
}

// Build returns a new, unsubmitted copy of the application's DAG, finalized
// and ready for submission. The copy is a Clone of a per-application
// template built once per process, so it shares no memory with any other
// live Build result. It reuses a freed DAG of the application when one is
// free (see graph.(*DAG).Free) and otherwise costs five allocations.
func Build(a App) (*graph.DAG, error) {
	if a < 0 || a >= NumApps {
		return nil, fmt.Errorf("workload: unknown app %d", a)
	}
	t := &templates[a]
	t.once.Do(func() {
		t.d, t.err = buildRaw(a)
		if t.err == nil {
			t.err = t.d.Finalize()
		}
	})
	if t.err != nil {
		return nil, t.err
	}
	return t.d.Clone(), nil
}

// MustBuild is Build for statically known-valid applications; it panics on
// error (tests, examples, internal harnesses).
func MustBuild(a App) *graph.DAG {
	d, err := Build(a)
	if err != nil {
		panic(err)
	}
	return d
}

// BuildScaled builds the application at scale x the linear input dimension
// (scale 2 = 256x256 frames): pixel counts and buffer sizes grow by
// scale^2, compute times scale with them. Used by the input-size
// sensitivity study (paper §V-H expects larger inputs to benefit more from
// complex interconnects).
func BuildScaled(a App, scale int) (*graph.DAG, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: invalid scale %d", scale)
	}
	d, err := buildRaw(a)
	if err != nil {
		return nil, err
	}
	f := int64(scale) * int64(scale)
	for _, n := range d.Nodes {
		n.Pixels *= scale * scale
		n.OutputBytes *= f
		n.ExtraInputBytes *= f
		for i := range n.EdgeInBytes {
			n.EdgeInBytes[i] *= f
		}
	}
	if err := d.Finalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// BuildTiled builds the application at the given scale and splits every
// node into tiles sub-tasks (GAM+-style accelerator composition, paper
// §IV-B), so oversize inputs fit the 128x128 scratchpads and expose
// tile-level parallelism.
func BuildTiled(a App, scale, tiles int) (*graph.DAG, error) {
	d, err := BuildScaled(a, scale)
	if err != nil {
		return nil, err
	}
	td, err := graph.Tile(d, tiles)
	if err != nil {
		return nil, err
	}
	if err := td.Finalize(); err != nil {
		return nil, err
	}
	return td, nil
}

func buildRaw(a App) (*graph.DAG, error) {
	switch a {
	case Canny:
		return buildCanny(), nil
	case Deblur:
		return buildDeblur(5), nil
	case GRU:
		return buildGRU(8), nil
	case Harris:
		return buildHarris(), nil
	case LSTM:
		return buildLSTM(8), nil
	}
	return nil, fmt.Errorf("workload: unknown app %d", a)
}

// BuildDeblur builds Richardson-Lucy deblur with a custom iteration count
// (the paper uses 5; more iterations trade latency for picture quality).
func BuildDeblur(iterations int) (*graph.DAG, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("workload: deblur iterations %d", iterations)
	}
	d := buildDeblur(iterations)
	if err := d.Finalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// BuildRNN builds GRU or LSTM with a custom sequence length (the paper
// uses 8 timesteps).
func BuildRNN(a App, seqLen int) (*graph.DAG, error) {
	if seqLen < 1 {
		return nil, fmt.Errorf("workload: sequence length %d", seqLen)
	}
	var d *graph.DAG
	switch a {
	case GRU:
		d = buildGRU(seqLen)
	case LSTM:
		d = buildLSTM(seqLen)
	default:
		return nil, fmt.Errorf("workload: %v is not an RNN", a)
	}
	if err := d.Finalize(); err != nil {
		return nil, err
	}
	return d, nil
}

// buildCanny reconstructs Fig. 1b: ISP -> grayscale -> Gaussian blur ->
// Sobel gradients -> magnitude/direction -> non-max suppression ->
// hysteresis edge tracking. 13 nodes; compute total 3537.0 µs vs paper's
// 3539.4 µs.
func buildCanny() *graph.DAG {
	d := graph.New("canny", "C", Canny.Deadline())
	isp := d.AddNode("isp", accel.ISP, accel.OpDefault, rgbBytes)
	isp.ExtraInputBytes = rawBytes
	g := d.AddNode("gray", accel.Grayscale, accel.OpDefault, frameBytes, isp)
	blur := conv(d, "gauss5", 5, frameBytes, g)
	gx := conv(d, "sobel-x", 3, frameBytes, blur)
	gy := conv(d, "sobel-y", 3, frameBytes, blur)
	sqx := d.AddNode("sqr-x", accel.ElemMatrix, accel.OpSqr, frameBytes, gx)
	sqy := d.AddNode("sqr-y", accel.ElemMatrix, accel.OpSqr, frameBytes, gy)
	sum := d.AddNode("mag-sq", accel.ElemMatrix, accel.OpAdd, frameBytes, sqx, sqy)
	mag := d.AddNode("mag", accel.ElemMatrix, accel.OpSqrt, frameBytes, sum)
	norm := d.AddNode("norm", accel.ElemMatrix, accel.OpScale, frameBytes, mag)
	dir := d.AddNode("dir", accel.ElemMatrix, accel.OpAtan2, maskBytes, gx, gy)
	cnm := d.AddNode("nonmax", accel.CannyNonMax, accel.OpDefault, frameBytes, norm, dir)
	d.AddNode("track", accel.EdgeTracking, accel.OpDefault, maskBytes, cnm)
	return d
}

// buildDeblur reconstructs Fig. 1c, Richardson-Lucy deconvolution with
// iters refinement iterations (paper: 5): per iteration, convolve the
// estimate with the PSF, divide the observation by it, correlate with the
// flipped PSF, and multiply into the estimate. 22 nodes at 5 iterations;
// compute total 15610.6 µs — exactly the paper's.
func buildDeblur(iters int) *graph.DAG {
	d := graph.New("deblur", "D", Deblur.Deadline())
	isp := d.AddNode("isp", accel.ISP, accel.OpDefault, rgbBytes)
	isp.ExtraInputBytes = rawBytes
	obs := d.AddNode("gray", accel.Grayscale, accel.OpDefault, frameBytes, isp)
	est := obs
	for i := 1; i <= iters; i++ {
		reblur := conv(d, fmt.Sprintf("psf-%d", i), 5, frameBytes, est)
		ratio := d.AddNode(fmt.Sprintf("ratio-%d", i), accel.ElemMatrix, accel.OpDiv, frameBytes, reblur, obs)
		corr := conv(d, fmt.Sprintf("corr-%d", i), 5, frameBytes, ratio)
		est = d.AddNode(fmt.Sprintf("update-%d", i), accel.ElemMatrix, accel.OpMul, frameBytes, corr, est)
	}
	return d
}

// buildHarris reconstructs Fig. 1d: gradients, structure-tensor products,
// windowed sums, corner response, response smoothing, and non-max
// suppression. 22 nodes; compute total 6154.8 µs vs paper's 6157.3 µs.
func buildHarris() *graph.DAG {
	d := graph.New("harris", "H", Harris.Deadline())
	isp := d.AddNode("isp", accel.ISP, accel.OpDefault, rgbBytes)
	isp.ExtraInputBytes = rawBytes
	g := d.AddNode("gray", accel.Grayscale, accel.OpDefault, frameBytes, isp)
	blur := conv(d, "gauss5", 5, frameBytes, g)
	ix := conv(d, "dx", 3, frameBytes, blur)
	iy := conv(d, "dy", 3, frameBytes, blur)
	ixx := d.AddNode("ixx", accel.ElemMatrix, accel.OpSqr, frameBytes, ix)
	iyy := d.AddNode("iyy", accel.ElemMatrix, accel.OpSqr, frameBytes, iy)
	ixy := d.AddNode("ixy", accel.ElemMatrix, accel.OpMul, frameBytes, ix, iy)
	sxx := conv(d, "win-xx", 3, frameBytes, ixx)
	syy := conv(d, "win-yy", 3, frameBytes, iyy)
	sxy := conv(d, "win-xy", 3, frameBytes, ixy)
	det1 := d.AddNode("det-a", accel.ElemMatrix, accel.OpMul, frameBytes, sxx, syy)
	det2 := d.AddNode("det-b", accel.ElemMatrix, accel.OpSqr, frameBytes, sxy)
	det := d.AddNode("det", accel.ElemMatrix, accel.OpSub, frameBytes, det1, det2)
	tr := d.AddNode("trace", accel.ElemMatrix, accel.OpAdd, frameBytes, sxx, syy)
	tr2 := d.AddNode("trace-sq", accel.ElemMatrix, accel.OpSqr, frameBytes, tr)
	ktr2 := d.AddNode("k-trace", accel.ElemMatrix, accel.OpScale, frameBytes, tr2)
	resp := d.AddNode("response", accel.ElemMatrix, accel.OpSub, frameBytes, det, ktr2)
	rn := d.AddNode("resp-norm", accel.ElemMatrix, accel.OpScale, frameBytes, resp)
	th := d.AddNode("thresh", accel.ElemMatrix, accel.OpThresh, frameBytes, rn)
	sm := conv(d, "smooth5", 5, frameBytes, th)
	d.AddNode("nonmax", accel.HarrisNonMax, accel.OpDefault, maskBytes, sm)
	return d
}

// buildGRU reconstructs Fig. 1e: a gated recurrent unit over seqLen
// timesteps (paper: 8) with batched 128x128 operands, exclusively on the
// elem-matrix accelerator. 14 nodes per step + 2 prologue = 114 nodes at
// seqLen 8; compute total 1247.2 µs vs paper's 1249.3 µs.
func buildGRU(seqLen int) *graph.DAG {
	d := graph.New("gru", "G", GRU.Deadline())
	em := func(name string, op accel.Op, parents ...*graph.Node) *graph.Node {
		return d.AddNode(name, accel.ElemMatrix, op, matBytes, parents...)
	}
	// Prologue: input embedding producing the initial hidden state.
	emb := em("embed", accel.OpMac)
	emb.ExtraInputBytes = weightBytes + matBytes // W_emb + x_0
	h := em("h0", accel.OpTanh, emb)
	for t := 1; t <= seqLen; t++ {
		nm := func(s string) string { return fmt.Sprintf("%s-%d", s, t) }
		// Update gate z_t (input-side mac is a root: x_t is DRAM-resident).
		zx := em(nm("zx"), accel.OpMac)
		zx.ExtraInputBytes = weightBytes + matBytes
		za := em(nm("z-acc"), accel.OpMac, zx, h)
		za.ExtraInputBytes = weightBytes
		zs := em(nm("z"), accel.OpSigmoid, za)
		// Reset gate r_t.
		rx := em(nm("rx"), accel.OpMac)
		rx.ExtraInputBytes = weightBytes + matBytes
		ra := em(nm("r-acc"), accel.OpMac, rx, h)
		ra.ExtraInputBytes = weightBytes
		rs := em(nm("r"), accel.OpSigmoid, ra)
		// Candidate h~_t.
		rh := em(nm("r*h"), accel.OpMul, rs, h)
		cx := em(nm("cx"), accel.OpMac)
		cx.ExtraInputBytes = weightBytes + matBytes
		ch := em(nm("c-acc"), accel.OpMac, rh)
		ch.ExtraInputBytes = weightBytes
		ca := em(nm("c-add"), accel.OpAdd, ch, cx)
		ct := em(nm("cand"), accel.OpTanh, ca)
		// Interpolation h_t = h + z (.) (h~ - h).
		dl := em(nm("delta"), accel.OpLerpSub, ct, h)
		zd := em(nm("z*delta"), accel.OpMul, zs, dl)
		h = em(nm("h"), accel.OpAdd, zd, h)
	}
	return d
}

// buildLSTM reconstructs Fig. 1f: long short-term memory over seqLen
// timesteps with batched 128x128 operands, exclusively on elem-matrix.
// 16 nodes per step + 6 prologue = 134 nodes at seqLen 8; compute total
// 1466.0 µs vs paper's 1470.0 µs.
func buildLSTM(seqLen int) *graph.DAG {
	d := graph.New("lstm", "L", LSTM.Deadline())
	em := func(name string, op accel.Op, parents ...*graph.Node) *graph.Node {
		return d.AddNode(name, accel.ElemMatrix, op, matBytes, parents...)
	}
	// Prologue: embed the input and initialise hidden and cell state.
	he := em("h-embed", accel.OpMac)
	he.ExtraInputBytes = weightBytes + matBytes
	ht := em("h-tanh", accel.OpTanh, he)
	h := em("h0", accel.OpScale, ht)
	ce := em("c-embed", accel.OpMac)
	ce.ExtraInputBytes = weightBytes + matBytes
	ctn := em("c-tanh", accel.OpTanh, ce)
	c := em("c0", accel.OpScale, ctn)
	for t := 1; t <= seqLen; t++ {
		nm := func(s string) string { return fmt.Sprintf("%s-%d", s, t) }
		gate := func(name string, act accel.Op) *graph.Node {
			gx := em(nm(name+"x"), accel.OpMac)
			gx.ExtraInputBytes = weightBytes + matBytes
			ga := em(nm(name+"-acc"), accel.OpMac, gx, h)
			ga.ExtraInputBytes = weightBytes
			return em(nm(name), act, ga)
		}
		i := gate("i", accel.OpSigmoid)
		f := gate("f", accel.OpSigmoid)
		o := gate("o", accel.OpSigmoid)
		gg := gate("g", accel.OpTanh)
		fc := em(nm("f*c"), accel.OpMul, f, c)
		ig := em(nm("i*g"), accel.OpMul, i, gg)
		c = em(nm("c"), accel.OpAdd, fc, ig)
		h = em(nm("h"), accel.OpTanhMul, o, c)
	}
	return d
}

func conv(d *graph.DAG, name string, filter int, out int64, parents ...*graph.Node) *graph.Node {
	n := d.AddNode(name, accel.Convolution, accel.OpDefault, out, parents...)
	n.FilterSize = filter
	return n
}

// Contention levels (paper §IV-C).
type Contention int

// The four contention levels.
const (
	Low        Contention = iota + 1 // single applications
	Medium                           // all pairs
	High                             // all triples
	Continuous                       // all triples, looped to a 50 ms horizon
)

func (c Contention) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	case Continuous:
		return "continuous"
	}
	return fmt.Sprintf("contention(%d)", int(c))
}

// ContinuousHorizon is the continuous-contention simulation cutoff.
const ContinuousHorizon = 50 * sim.Millisecond

// Mixes enumerates the application combinations for a contention level, in
// the paper's order (C, D, G, H, L lexicographic).
func Mixes(c Contention) [][]App {
	size := 1
	switch c {
	case Low:
		size = 1
	case Medium:
		size = 2
	case High, Continuous:
		size = 3
	default:
		panic(fmt.Sprintf("workload: unknown contention level %d", c)) //lint:allow nopanic unreachable: every Contention value is enumerated above
	}
	return combinations(size)
}

func combinations(size int) [][]App {
	var out [][]App
	var cur []App
	var rec func(start App)
	rec = func(start App) {
		if len(cur) == size {
			out = append(out, append([]App(nil), cur...))
			return
		}
		for a := start; a < NumApps; a++ {
			cur = append(cur, a)
			rec(a + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// MixName returns the paper's label for a mix, e.g. "CDG".
func MixName(mix []App) string {
	syms := make([]string, len(mix))
	for i, a := range mix {
		syms[i] = a.Sym()
	}
	sort.Strings(syms)
	return strings.Join(syms, "")
}

// ParseMix converts a label like "CGL" back into applications.
func ParseMix(name string) ([]App, error) {
	var mix []App
	for i := 0; i < len(name); i++ {
		a, err := BySym(name[i])
		if err != nil {
			return nil, err
		}
		mix = append(mix, a)
	}
	return mix, nil
}
