package gen

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// edge is one directed edge. Node IDs are uint32 throughout the repo
// (scaled graphs stay below 2^32 nodes; the paper's offset index is
// what carries the 64-bit addressing).
type edge struct {
	Src, Dst uint32
}

// externalSorter sorts an edge stream by (Src, Dst) without holding it
// in memory: edges accumulate in a bounded chunk, full chunks are
// sorted and spilled to run files, and merge k-way-merges the runs.
// Preprocessing therefore stays out-of-core like the sampler itself —
// the paper's datasets (up to 8.2B edges) never fit in RAM.
type externalSorter struct {
	tmpDir   string
	chunkCap int
	chunk    []edge
	runs     []string
}

const edgeRecordBytes = 8 // two little-endian uint32s

// newExternalSorter creates a sorter spilling runs of chunkEdges edges
// into tmpDir (created if missing).
func newExternalSorter(tmpDir string, chunkEdges int) (*externalSorter, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, fmt.Errorf("gen: extsort tmpdir: %w", err)
	}
	return &externalSorter{
		tmpDir:   tmpDir,
		chunkCap: chunkEdges,
		chunk:    make([]edge, 0, chunkEdges),
	}, nil
}

// add buffers one edge, spilling a sorted run when the chunk fills.
func (s *externalSorter) add(e edge) error {
	s.chunk = append(s.chunk, e)
	if len(s.chunk) >= s.chunkCap {
		return s.spill()
	}
	return nil
}

func (s *externalSorter) spill() error {
	sortEdges(s.chunk)
	path := filepath.Join(s.tmpDir, fmt.Sprintf("run-%06d.bin", len(s.runs)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("gen: extsort spill: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [edgeRecordBytes]byte
	for _, e := range s.chunk {
		binary.LittleEndian.PutUint32(rec[0:], e.Src)
		binary.LittleEndian.PutUint32(rec[4:], e.Dst)
		if _, err := w.Write(rec[:]); err != nil {
			f.Close()
			return fmt.Errorf("gen: extsort spill: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("gen: extsort spill: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("gen: extsort spill: %w", err)
	}
	s.runs = append(s.runs, path)
	s.chunk = s.chunk[:0]
	return nil
}

func sortEdges(es []edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

// merge emits every added edge in (Src, Dst) order and removes the run
// files. The sorter is spent afterwards.
func (s *externalSorter) merge(emit func(edge) error) error {
	defer s.cleanup()
	if len(s.runs) == 0 {
		// Everything fit in one chunk: sort and emit directly.
		sortEdges(s.chunk)
		for _, e := range s.chunk {
			if err := emit(e); err != nil {
				return err
			}
		}
		s.chunk = nil
		return nil
	}
	if len(s.chunk) > 0 {
		if err := s.spill(); err != nil {
			return err
		}
	}
	h := make(runHeap, 0, len(s.runs))
	defer func() {
		for _, r := range h {
			r.f.Close()
		}
	}()
	for _, path := range s.runs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("gen: extsort merge: %w", err)
		}
		rr := &runReader{f: f, br: bufio.NewReaderSize(f, 1<<16)}
		ok, err := rr.next()
		if err != nil {
			f.Close()
			return err
		}
		if ok {
			h = append(h, rr)
		} else {
			f.Close()
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		rr := h[0]
		if err := emit(rr.cur); err != nil {
			return err
		}
		ok, err := rr.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			rr.f.Close()
			heap.Pop(&h)
		}
	}
	return nil
}

func (s *externalSorter) cleanup() {
	for _, path := range s.runs {
		os.Remove(path)
	}
	s.runs = nil
}

type runReader struct {
	f   *os.File
	br  *bufio.Reader
	cur edge
}

func (r *runReader) next() (bool, error) {
	var rec [edgeRecordBytes]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, fmt.Errorf("gen: extsort read run: %w", err)
	}
	r.cur.Src = binary.LittleEndian.Uint32(rec[0:])
	r.cur.Dst = binary.LittleEndian.Uint32(rec[4:])
	return true, nil
}

type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].cur.Src != h[j].cur.Src {
		return h[i].cur.Src < h[j].cur.Src
	}
	return h[i].cur.Dst < h[j].cur.Dst
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
