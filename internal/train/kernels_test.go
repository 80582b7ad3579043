package train

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"ringsampler/internal/sample"
)

// matvecAddRef is the one-row-at-a-time kernel matvecAdd replaced: the
// definition of each row's summation order.
func matvecAddRef(y []float32, w, x []float32) {
	cols := len(x)
	for r := range y {
		row := w[r*cols : (r+1)*cols]
		var s float32
		for d, xv := range x {
			s += row[d] * xv
		}
		y[r] += s
	}
}

// TestMatvecAddBitIdentical: the 4-row kernel equals the single-row
// reference bit for bit — every row count 1..19 (all three tail
// lengths), several widths, inputs spanning magnitudes so a reordered
// sum would round differently.
func TestMatvecAddBitIdentical(t *testing.T) {
	r := sample.NewRNG(0xf32)
	rnd := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32((r.Float64()*2 - 1) * math.Pow(10, r.Float64()*6-3))
		}
		return out
	}
	for rows := 1; rows <= 19; rows++ {
		for _, cols := range []int{1, 3, 16, 32, 37} {
			w, x, y0 := rnd(rows*cols), rnd(cols), rnd(rows)
			got, want := append([]float32(nil), y0...), append([]float32(nil), y0...)
			matvecAdd(got, w, x)
			matvecAddRef(want, w, x)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("rows=%d cols=%d: y[%d] = %v (%#x), reference %v (%#x)", rows, cols, i,
						got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestDecodeF32ViewAndCopyAgree: the aligned zero-copy view and the
// misaligned decoded copy hold the same floats.
func TestDecodeF32ViewAndCopyAgree(t *testing.T) {
	const n = 33
	aligned := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(aligned[i*4:], math.Float32bits(float32(i)*1.25-7))
	}
	odd := append(make([]byte, 1, 1+n*4), aligned...)[1:]
	viaView, viaCopy := decodeF32(aligned), decodeF32(odd)
	for i := 0; i < n; i++ {
		if want := float32(i)*1.25 - 7; viaView[i] != want || viaCopy[i] != want {
			t.Fatalf("float %d: view %v copy %v, want %v", i, viaView[i], viaCopy[i], want)
		}
	}
	if len(decodeF32(nil)) != 0 {
		t.Fatal("decodeF32(nil) not empty")
	}
}

// TestDuplicateFrontierRefused: every frontier from layer 1 on is
// sorted and deduplicated by the sampler, so a node repeated in the
// lower frontier is a malformed batch — the step refuses it, naming the
// node, instead of picking one of its rows — and the node index is
// still left all zero for the next batch.
func TestDuplicateFrontierRefused(t *testing.T) {
	cfg := Config{FeatureDim: 5, Hidden: 4, Classes: 3, Layers: 2, LR: 0.1, Seed: 3}
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := testBatch(cfg.FeatureDim)
	// Node 2 again at the end of the level-1 frontier.
	l1 := &b.Layers[1]
	l1.Targets = append(l1.Targets, 2)
	l1.Neighbors = append(l1.Neighbors, 0, 1, 4)
	l1.Starts = append(l1.Starts, int64(len(l1.Neighbors)))
	_, _, _, err = m.forward(b, testLabels(6, cfg.Classes))
	if err == nil || !strings.Contains(err.Error(), "node 2 repeated") {
		t.Fatalf("err = %v, want a refusal naming the repeated node 2", err)
	}
	for _, v := range m.index {
		if v != 0 {
			t.Fatal("node index not left all-zero after a refused step")
		}
	}
}
