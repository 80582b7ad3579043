// Package train closes the loop the paper's Fig 4/5 baselines imply: a
// minimal, dependency-free GraphSAGE consumer that trains on the
// batches the sampler produces — mean-aggregator layers over
// Batch.Features, f32 dense matmuls, softmax cross-entropy, plain SGD.
//
// The package inherits the repo's determinism contract (DESIGN.md §13):
// a training run's loss curve and final weights are a pure function of
// (dataset, core.Config, targets, seed, train.Config). Two things make
// that hold. First, the sampler already delivers a thread-invariant
// batch stream in batch order. Second, every float accumulation here —
// matmuls, aggregator means, gradient reduction, SGD updates — iterates
// in a fixed order with no parallelism inside the model, so f32
// non-associativity never sees a reordering. Bit-identical weights at
// any Config.Threads is a tested guarantee, not a best effort.
package train

import (
	"fmt"
	"hash/fnv"
	"math"
	"unsafe"

	"ringsampler/internal/core"
	"ringsampler/internal/sample"
)

// initSalt decorrelates weight-init RNG streams from every other
// consumer of the shared seed.
const initSalt = 0x9a5e1417

// MaxLayers bounds model depth: the sampler's default fanout is 3
// layers and the mean-aggregator model is only ever trained 1–2 deep.
const MaxLayers = 3

// Config describes a GraphSAGE model. All fields are required (zero
// values are rejected by NewModel) except Seed, where 0 is a valid
// seed.
type Config struct {
	// FeatureDim is the node feature width — must match the dataset's.
	FeatureDim int
	// Hidden is the per-layer hidden width.
	Hidden int
	// Classes is the softmax output width — must match the dataset's
	// numClasses.
	Classes int
	// Layers is the GraphSAGE depth (1..MaxLayers). A batch must carry
	// at least this many sampled layers.
	Layers int
	// LR is the SGD learning rate.
	LR float32
	// Seed drives weight initialization.
	Seed uint64
}

func (c Config) validate() error {
	if c.FeatureDim <= 0 {
		return fmt.Errorf("train: FeatureDim %d must be positive", c.FeatureDim)
	}
	if c.Hidden <= 0 {
		return fmt.Errorf("train: Hidden %d must be positive", c.Hidden)
	}
	if c.Classes < 2 {
		return fmt.Errorf("train: Classes %d must be at least 2", c.Classes)
	}
	if c.Layers < 1 || c.Layers > MaxLayers {
		return fmt.Errorf("train: Layers %d out of range [1,%d]", c.Layers, MaxLayers)
	}
	if !(c.LR > 0) {
		return fmt.Errorf("train: LR %v must be positive", c.LR)
	}
	return nil
}

// params is one full set of model-shaped tensors — the weights
// themselves, and (same shapes) a gradient accumulator. All matrices
// are row-major flat slices.
type params struct {
	// Wself[l] (Hidden × FeatureDim) maps node l's OWN raw feature
	// vector; Wneigh[l] (Hidden × aggIn(l)) maps the mean-aggregated
	// neighbor representation — raw features at the deepest layer,
	// next-layer hidden states above it; B[l] (Hidden) is the bias.
	Wself, Wneigh, B [][]float32
	// Wout (Classes × Hidden) + Bout (Classes) produce the logits from
	// the level-0 hidden states.
	Wout, Bout []float32
}

// aggIn returns the aggregator input width of model level l: raw
// features feed the deepest level, hidden states feed the rest.
func (c Config) aggIn(l int) int {
	if l == c.Layers-1 {
		return c.FeatureDim
	}
	return c.Hidden
}

func newParams(c Config) params {
	p := params{
		Wself:  make([][]float32, c.Layers),
		Wneigh: make([][]float32, c.Layers),
		B:      make([][]float32, c.Layers),
		Wout:   make([]float32, c.Classes*c.Hidden),
		Bout:   make([]float32, c.Classes),
	}
	for l := 0; l < c.Layers; l++ {
		p.Wself[l] = make([]float32, c.Hidden*c.FeatureDim)
		p.Wneigh[l] = make([]float32, c.Hidden*c.aggIn(l))
		p.B[l] = make([]float32, c.Hidden)
	}
	return p
}

// tensors returns every tensor in the model's canonical order — the
// order WeightsDigest folds, gradients apply, and the gradient-check
// test sweeps.
func (p *params) tensors() [][]float32 {
	var ts [][]float32
	for l := range p.Wself {
		ts = append(ts, p.Wself[l], p.Wneigh[l], p.B[l])
	}
	return append(ts, p.Wout, p.Bout)
}

func (p *params) zero() {
	for _, t := range p.tensors() {
		for i := range t {
			t[i] = 0
		}
	}
}

// Model is a GraphSAGE mean-aggregator network. It is NOT safe for
// concurrent Step calls — the determinism contract forbids model-level
// parallelism anyway (gradient reduction must be fixed-order), so the
// training loop always drives one Model from one goroutine.
type Model struct {
	cfg Config
	params
	grad params
	// steps counts applied SGD updates (one per Step call).
	steps int64

	// Per-step workspaces, reused across steps: the forward state, the
	// backward pass's hidden-state gradients, and the node-id index the
	// position arrays are resolved through (all zero between uses).
	st    batchState
	dHid  [][]float32
	index []int32
}

// NewModel builds a model with Glorot-uniform initial weights derived
// from cfg.Seed. Initialization is deterministic: tensor t's entries
// come from an RNG seeded Mix(Seed^initSalt, t), independent of
// everything else that mixes the seed.
func NewModel(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, params: newParams(cfg), grad: newParams(cfg)}
	fanIn := func(t []float32, rows int) int { return len(t) / rows }
	for ti, t := range m.params.tensors() {
		if len(t) == 0 {
			continue
		}
		rng := sample.NewRNG(sample.Mix(cfg.Seed^initSalt, uint64(ti)))
		// Bias vectors start at zero (the Glorot convention); matrices get
		// uniform(-limit, limit) with limit = sqrt(6/(fanIn+fanOut)).
		var rows int
		switch {
		case ti == len(m.params.tensors())-2: // Wout
			rows = cfg.Classes
		case ti == len(m.params.tensors())-1: // Bout
			continue
		case ti%3 == 2: // B[l]
			continue
		default: // Wself[l] / Wneigh[l]
			rows = cfg.Hidden
		}
		limit := math.Sqrt(6 / float64(fanIn(t, rows)+rows))
		for i := range t {
			t[i] = float32((rng.Float64()*2 - 1) * limit)
		}
	}
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Steps returns how many SGD updates have been applied.
func (m *Model) Steps() int64 { return m.steps }

// WeightsDigest folds every parameter's f32 bit pattern into an FNV-1a
// sum in canonical tensor order. Bit-identical models (and only those,
// modulo hash collisions) share a digest — this is what the
// thread-invariance and overlap-equivalence tests compare.
func (m *Model) WeightsDigest() uint64 {
	h := fnv.New64a()
	var word [4]byte
	for _, t := range m.params.tensors() {
		for _, v := range t {
			u := math.Float32bits(v)
			word[0], word[1], word[2], word[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(word[:])
		}
	}
	return h.Sum64()
}

// batchState is the forward pass's retained intermediate state, kept
// for the backward pass.
type batchState struct {
	feats []float32 // decoded Batch.Features

	// Per model level l: the frontier's pre-activations, hidden states,
	// and aggregated neighbor inputs, indexed like b.Layers[l].Targets.
	pre, hid, agg [][]float32
	// Position arrays, resolved once per batch so the passes index
	// instead of searching. self[l][i] is b.Layers[l].Targets[i]'s row in
	// feats (its position in Batch.FeatNodes). nbr[l][j] is where
	// b.Layers[l].Neighbors[j]'s aggregator input lives: its row in feats
	// at the deepest level, its index in b.Layers[l+1].Targets (the row
	// of hid[l+1]) above it. Where a node id repeats, the first
	// occurrence wins — the walk strategy's frontiers carry duplicates.
	self, nbr [][]int32
	// dlogits is dLoss/dlogits per level-0 target, already scaled by
	// 1/batch so accumulated gradients are means. Unused on Eval.
	dlogits []float32
	logits  []float32
}

// fillIndex records each node's position+1 in index (0 means absent),
// first occurrence winning. A node id outside the index — outside the
// graph the label array describes — is rejected.
func fillIndex(index []int32, nodes []uint32) error {
	for i, v := range nodes {
		if int64(v) >= int64(len(index)) {
			return fmt.Errorf("train: node %d outside label array (%d nodes)", v, len(index))
		}
		if index[v] == 0 {
			index[v] = int32(i + 1)
		}
	}
	return nil
}

// clearIndex undoes fillIndex, leaving the index all zero again at a
// cost proportional to the batch, not the graph.
func clearIndex(index []int32, nodes []uint32) {
	for _, v := range nodes {
		if int64(v) < int64(len(index)) {
			index[v] = 0
		}
	}
}

// positions resolves nodes through the index into dst[:0]. frontier
// names what the index holds for the error a missing node gets: the
// layer whose Targets it was filled from, or -1 for Batch.FeatNodes.
func positions(dst []int32, index []int32, nodes []uint32, frontier int) ([]int32, error) {
	dst = dst[:0]
	for _, v := range nodes {
		if int64(v) >= int64(len(index)) || index[v] == 0 {
			if frontier < 0 {
				return dst, fmt.Errorf("train: node %d missing from batch feature payload", v)
			}
			return dst, fmt.Errorf("train: layer-%d neighbor %d missing from layer-%d frontier", frontier-1, v, frontier)
		}
		dst = append(dst, index[v]-1)
	}
	return dst, nil
}

// resolve fills st.self and st.nbr for the batch through one dense
// node-id index: over Batch.FeatNodes for every feature row, then over
// each lower frontier for the hidden-state rows above it. Every lookup
// is validated here, so the passes index unchecked.
func (m *Model) resolve(b *core.Batch, numNodes int) error {
	st, deepest := &m.st, m.cfg.Layers-1
	if len(m.index) < numNodes {
		m.index = make([]int32, numNodes)
	}
	index := m.index[:numNodes]

	err := fillIndex(index, b.FeatNodes)
	for l := 0; l <= deepest && err == nil; l++ {
		st.self[l], err = positions(st.self[l], index, b.Layers[l].Targets, -1)
	}
	if err == nil {
		st.nbr[deepest], err = positions(st.nbr[deepest], index, b.Layers[deepest].Neighbors, -1)
	}
	clearIndex(index, b.FeatNodes)
	for l := 0; l < deepest && err == nil; l++ {
		below := b.Layers[l+1].Targets
		if err = fillIndex(index, below); err == nil {
			st.nbr[l], err = positions(st.nbr[l], index, b.Layers[l].Neighbors, l+1)
		}
		clearIndex(index, below)
	}
	return err
}

// zeroed returns buf resized to n zeros, reusing its storage.
func zeroed(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// matvecAdd computes y += W·x for row-major W (len(y) rows), four rows
// per pass over x. A single row's dot product is one dependency chain —
// each add waits for the last — so four independent accumulators run
// four chains at once and share each load of x. Every row still sums
// its own products in column order, so each y[r] is bit-identical to
// the one-row-at-a-time loop's (f32 addition is not associative; the
// order within a row is the only order there is).
func matvecAdd(y []float32, w, x []float32) {
	cols := len(x)
	r := 0
	for ; r+4 <= len(y); r += 4 {
		row0 := w[(r+0)*cols:][:cols]
		row1 := w[(r+1)*cols:][:cols]
		row2 := w[(r+2)*cols:][:cols]
		row3 := w[(r+3)*cols:][:cols]
		var s0, s1, s2, s3 float32
		for d, xv := range x {
			s0 += row0[d] * xv
			s1 += row1[d] * xv
			s2 += row2[d] * xv
			s3 += row3[d] * xv
		}
		y[r] += s0
		y[r+1] += s1
		y[r+2] += s2
		y[r+3] += s3
	}
	for ; r < len(y); r++ {
		row := w[r*cols:][:cols]
		var s float32
		for d, xv := range x {
			s += row[d] * xv
		}
		y[r] += s
	}
}

// matvecTAdd computes x += Wᵀ·y for row-major W (len(y) rows).
func matvecTAdd(x []float32, w, y []float32) {
	cols := len(x)
	for r, yv := range y {
		if yv == 0 {
			continue
		}
		row := w[r*cols : (r+1)*cols]
		for d := range x {
			x[d] += row[d] * yv
		}
	}
}

// outerAdd accumulates g += y ⊗ x into row-major g (len(y) rows).
func outerAdd(g []float32, y, x []float32) {
	cols := len(x)
	for r, yv := range y {
		if yv == 0 {
			continue
		}
		row := g[r*cols : (r+1)*cols]
		for d, xv := range x {
			row[d] += yv * xv
		}
	}
}

// Step runs one forward/backward pass over the batch and applies one
// SGD update. labels is the WHOLE graph's per-node label array
// (storage.Dataset.Labels); the batch's level-0 targets index into it.
// Returns the mean cross-entropy loss over the batch's targets and how
// many were classified correctly. The update is strictly sequential
// and fixed-order — see the package comment.
func (m *Model) Step(b *core.Batch, labels []uint32) (loss float64, correct int, err error) {
	st, loss, correct, err := m.forward(b, labels, true)
	if err != nil {
		return 0, 0, err
	}
	if err := m.backward(b, st); err != nil {
		return 0, 0, err
	}
	grads := m.grad.tensors()
	for ti, t := range m.params.tensors() {
		g := grads[ti]
		for i := range t {
			t[i] -= m.cfg.LR * g[i]
		}
	}
	m.steps++
	m.st.feats = nil // a view of b.Features: do not keep the batch alive
	return loss, correct, nil
}

// Eval runs the forward pass only: mean loss and correct count with no
// weight update.
func (m *Model) Eval(b *core.Batch, labels []uint32) (loss float64, correct int, err error) {
	_, loss, correct, err = m.forward(b, labels, false)
	m.st.feats = nil
	return loss, correct, err
}

// forward validates the batch against the model shape and runs the
// bottom-up forward pass. With retain, the intermediate state needed by
// backward is kept; Eval passes false and the per-level slices are
// still built (they are the computation) but returned for reuse.
func (m *Model) forward(b *core.Batch, labels []uint32, retain bool) (*batchState, float64, int, error) {
	c := m.cfg
	if b.FeatureDim != c.FeatureDim {
		return nil, 0, 0, fmt.Errorf("train: batch feature dim %d != model %d (is Config.FetchFeatures on?)", b.FeatureDim, c.FeatureDim)
	}
	if len(b.Layers) < c.Layers {
		return nil, 0, 0, fmt.Errorf("train: batch has %d sampled layers, model needs %d", len(b.Layers), c.Layers)
	}
	if len(b.FeatNodes)*c.FeatureDim*4 != len(b.Features) {
		return nil, 0, 0, fmt.Errorf("train: feature payload %d bytes inconsistent with %d nodes × dim %d", len(b.Features), len(b.FeatNodes), c.FeatureDim)
	}
	st := &m.st
	if st.pre == nil {
		st.pre, st.hid, st.agg = make([][]float32, c.Layers), make([][]float32, c.Layers), make([][]float32, c.Layers)
		st.self, st.nbr = make([][]int32, c.Layers), make([][]int32, c.Layers)
		st.logits = make([]float32, c.Classes)
	}
	st.feats = decodeF32(b.Features)
	if err := m.resolve(b, len(labels)); err != nil {
		return nil, 0, 0, err
	}

	// Bottom-up: the deepest level aggregates raw neighbor features,
	// every level above aggregates the level below's hidden states.
	for l := c.Layers - 1; l >= 0; l-- {
		lay := &b.Layers[l]
		n := len(lay.Targets)
		aggW := c.aggIn(l)
		st.pre[l] = zeroed(st.pre[l], n*c.Hidden)
		st.hid[l] = zeroed(st.hid[l], n*c.Hidden)
		st.agg[l] = zeroed(st.agg[l], n*aggW)
		// rows is what this level aggregates, aggW wide, addressed by nbr.
		rows := st.feats
		if l < c.Layers-1 {
			rows = st.hid[l+1]
		}
		for i := range lay.Targets {
			agg := st.agg[l][i*aggW : (i+1)*aggW]
			if neigh := st.nbr[l][lay.Starts[i]:lay.Starts[i+1]]; len(neigh) > 0 {
				inv := float32(1) / float32(len(neigh))
				for _, j := range neigh {
					src := rows[int(j)*aggW:][:aggW]
					for d, sv := range src {
						agg[d] += sv
					}
				}
				for d := range agg {
					agg[d] *= inv
				}
			}
			self := st.feats[int(st.self[l][i])*c.FeatureDim:][:c.FeatureDim]
			z := st.pre[l][i*c.Hidden : (i+1)*c.Hidden]
			copy(z, m.B[l])
			matvecAdd(z, m.Wself[l], self)
			matvecAdd(z, m.Wneigh[l], agg)
			h := st.hid[l][i*c.Hidden : (i+1)*c.Hidden]
			for d, zv := range z {
				if zv > 0 {
					h[d] = zv
				}
			}
		}
	}

	// Logits, softmax cross-entropy, accuracy. The softmax runs through
	// float64 for a numerically stable log-sum-exp; the resulting
	// gradient is cast back to f32.
	var sumLoss float64
	var corr int
	targets := b.Layers[0].Targets
	logits := st.logits
	if retain {
		st.dlogits = zeroed(st.dlogits, len(targets)*c.Classes)
	}
	for i, v := range targets {
		if int64(v) >= int64(len(labels)) {
			return nil, 0, 0, fmt.Errorf("train: target %d outside label array (%d nodes)", v, len(labels))
		}
		lab := labels[v]
		if int(lab) >= c.Classes {
			return nil, 0, 0, fmt.Errorf("train: label %d of node %d outside model classes %d", lab, v, c.Classes)
		}
		h := st.hid[0][i*c.Hidden : (i+1)*c.Hidden]
		copy(logits, m.Bout)
		matvecAdd(logits, m.Wout, h)
		maxL, argmax := float64(logits[0]), 0
		for cix := 1; cix < c.Classes; cix++ {
			if float64(logits[cix]) > maxL {
				maxL, argmax = float64(logits[cix]), cix
			}
		}
		if argmax == int(lab) {
			corr++
		}
		var sumExp float64
		for cix := 0; cix < c.Classes; cix++ {
			sumExp += math.Exp(float64(logits[cix]) - maxL)
		}
		logSum := math.Log(sumExp) + maxL
		sumLoss += logSum - float64(logits[lab])
		if retain {
			dl := st.dlogits[i*c.Classes : (i+1)*c.Classes]
			invB := 1 / float64(len(targets))
			for cix := 0; cix < c.Classes; cix++ {
				p := math.Exp(float64(logits[cix]) - logSum)
				if cix == int(lab) {
					p -= 1
				}
				dl[cix] = float32(p * invB)
			}
		}
	}
	return st, sumLoss / float64(len(targets)), corr, nil
}

// backward accumulates the mean-loss gradient into m.grad, mirroring
// forward's traversal top-down in the same fixed iteration order.
func (m *Model) backward(b *core.Batch, st *batchState) error {
	c := m.cfg
	m.grad.zero()
	// dHid[l] is dLoss/d(hidden state) for level l's frontier.
	if m.dHid == nil {
		m.dHid = make([][]float32, c.Layers)
	}
	dHid := m.dHid
	for l := 0; l < c.Layers; l++ {
		dHid[l] = zeroed(dHid[l], len(b.Layers[l].Targets)*c.Hidden)
	}
	for i := range b.Layers[0].Targets {
		dl := st.dlogits[i*c.Classes : (i+1)*c.Classes]
		h := st.hid[0][i*c.Hidden : (i+1)*c.Hidden]
		outerAdd(m.grad.Wout, dl, h)
		for cix, g := range dl {
			m.grad.Bout[cix] += g
		}
		matvecTAdd(dHid[0][i*c.Hidden:(i+1)*c.Hidden], m.Wout, dl)
	}
	dz := make([]float32, c.Hidden)
	for l := 0; l < c.Layers; l++ {
		lay := &b.Layers[l]
		aggW := c.aggIn(l)
		dAgg := make([]float32, aggW)
		for i := range lay.Targets {
			z := st.pre[l][i*c.Hidden : (i+1)*c.Hidden]
			dh := dHid[l][i*c.Hidden : (i+1)*c.Hidden]
			for d := range dz {
				if z[d] > 0 {
					dz[d] = dh[d]
				} else {
					dz[d] = 0
				}
			}
			self := st.feats[int(st.self[l][i])*c.FeatureDim:][:c.FeatureDim]
			outerAdd(m.grad.Wself[l], dz, self)
			outerAdd(m.grad.Wneigh[l], dz, st.agg[l][i*aggW:(i+1)*aggW])
			for d, g := range dz {
				m.grad.B[l][d] += g
			}
			neigh := st.nbr[l][lay.Starts[i]:lay.Starts[i+1]]
			if l == c.Layers-1 || len(neigh) == 0 {
				continue
			}
			for d := range dAgg {
				dAgg[d] = 0
			}
			matvecTAdd(dAgg, m.Wneigh[l], dz)
			inv := float32(1) / float32(len(neigh))
			for _, j := range neigh {
				dst := dHid[l+1][int(j)*c.Hidden:][:c.Hidden]
				for d, g := range dAgg {
					dst[d] += g * inv
				}
			}
		}
	}
	return nil
}

// hostLittleEndian reports whether a float32's bytes in memory are the
// feature file's byte order.
var hostLittleEndian = func() bool {
	one := uint16(1)
	return *(*byte)(unsafe.Pointer(&one)) == 1
}()

// decodeF32 reinterprets little-endian f32 bytes as a float32 slice: a
// zero-copy view of raw where the host stores floats the same way and
// the payload is 4-byte aligned (every Batch.Features the sampler
// allocates is), a decoded copy otherwise. The passes only read it.
func decodeF32(raw []byte) []float32 {
	n := len(raw) / 4
	if n > 0 && hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(raw)))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(raw))), n)
	}
	out := make([]float32, n)
	for i := range out {
		u := uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 | uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24
		out[i] = math.Float32frombits(u)
	}
	return out
}
