package main

// Layer probes: short fixed measurements of one layer each, made by
// calling the layer's public functions directly. They are the same in
// every traced run, whatever the workload, so a layer's cost is on every
// report even when the workload under trace never enters that layer.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ringsampler/internal/storage"
)

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// probeGen generates a small graph afresh and partitions it.
// Preprocessing is one-time and outside setup_s by design; it is timed so
// that work moved into generation is visible.
func (b *bench) probeGen(rep *report) error {
	root := filepath.Join(b.outDir, "tmp-gen-probe")
	if err := os.RemoveAll(root); err != nil {
		return err
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "graph")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	if err := genDataset(dir, "gen-probe", b.sc.probeNodes, b.sc.probeEdges, genSeed+1, featureDim, numClasses); err != nil {
		return err
	}
	gs := since(t0)
	t0 = time.Now()
	if _, err := genPartition(dir, filepath.Join(root, "shards"), numShards); err != nil {
		return err
	}
	rep.set("gen.generate_s", "s", gs)
	rep.set("gen.edges_per_s", "1/s", float64(b.sc.probeEdges)/gs)
	rep.set("gen.partition_s", "s", since(t0))
	return nil
}

const probeReads = 2000

// readAtP50 times random page-aligned 4 KiB Dataset.ReadAt calls.
func readAtP50(ds *storage.Dataset, edgeBytes int64, r *rand.Rand) (float64, error) {
	const page = 4096
	buf := make([]byte, page)
	us := make([]float64, 0, probeReads)
	for i := 0; i < probeReads; i++ {
		off := r.Int63n(edgeBytes/page) * page
		t0 := time.Now()
		if _, err := ds.ReadAt(buf, off); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// probeStorage also returns the buffered and the O_DIRECT dataset it
// opened, which the later probes share.
func (b *bench) probeStorage(rep *report) (ds, dds *storage.Dataset, err error) {
	var opens []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		d, err := openDataset(b.data.Dir, false)
		if err != nil {
			return nil, nil, err
		}
		opens = append(opens, since(t0))
		d.Close()
	}
	rep.set("storage.open_s", "s", median(opens))

	if ds, err = openDataset(b.data.Dir, false); err != nil {
		return nil, nil, err
	}
	if dds, err = openDataset(b.data.Dir, true); err != nil {
		ds.Close()
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			ds.Close()
			dds.Close()
		}
	}()
	t0 := time.Now()
	if _, err = ds.Labels(); err != nil {
		return nil, nil, err
	}
	rep.set("storage.label_load_s", "s", since(t0))
	r := rand.New(rand.NewSource(int64(b.seed)))
	p50, err := readAtP50(ds, b.data.EdgeBytes, r)
	if err != nil {
		return nil, nil, err
	}
	rep.set("storage.readat_us_p50", "us", p50)
	if p50, err = readAtP50(dds, b.data.EdgeBytes, r); err != nil {
		return nil, nil, err
	}
	rep.set("storage.readat_direct_us_p50", "us", p50)
	fallback := 0.0
	if dds.DirectFallback() != nil {
		fallback = 1
	}
	rep.set("storage.direct_fallback", "count", fallback)
	return ds, dds, nil
}

// ringReads pushes ring-sized groups of random reads of size bytes each
// through a fresh ring for about budget, and returns reads per second
// with the ring's own syscall counts per thousand reads.
func ringReads(f *os.File, fileBytes int64, size int, buf []byte, r *rand.Rand, budget time.Duration) (perSec, submitsPerK, waitsPerK float64, err error) {
	const entries = 512
	ring, err := newRing(f, entries)
	if err != nil {
		return 0, 0, 0, err
	}
	defer ring.Close()
	var reads int64
	t0 := time.Now()
	for time.Since(t0) < budget {
		staged := 0
		for staged < entries {
			off := r.Int63n(fileBytes/int64(size)) * int64(size)
			if !ring.PrepRead(uint64(staged), off, buf[staged*size:(staged+1)*size]) {
				break
			}
			staged++
		}
		if _, err := ring.Submit(); err != nil {
			return 0, 0, 0, err
		}
		for done := 0; done < staged; {
			cqes, err := ring.Wait(1)
			if err != nil {
				return 0, 0, 0, err
			}
			for _, c := range cqes {
				if c.Res < 0 {
					return 0, 0, 0, fmt.Errorf("ring read failed: errno %d", -c.Res)
				}
			}
			done += len(cqes)
		}
		reads += int64(staged)
	}
	sec := since(t0)
	sub, wait := ringSyscalls(ring)
	k := float64(reads) / 1e3
	return float64(reads) / sec, float64(sub) / k, float64(wait) / k, nil
}

func (b *bench) probeUring(rep *report, ds, dds *storage.Dataset) error {
	const budget = 400 * time.Millisecond
	r := rand.New(rand.NewSource(int64(b.seed) + 1))
	var setups []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		ring, err := newRing(ds.File(), 512)
		if err != nil {
			return err
		}
		setups = append(setups, float64(time.Since(t0).Nanoseconds())/1e3)
		ring.Close()
	}
	rep.set("uring.ring_setup_us", "us", median(setups))
	perSec, sub, wait, err := ringReads(ds.File(), b.data.EdgeBytes, storage.EntryBytes, make([]byte, 512*storage.EntryBytes), r, budget)
	if err != nil {
		return err
	}
	rep.set("uring.reads_per_s.buffered", "1/s", perSec)
	rep.set("uring.submit_syscalls_per_kread", "count", sub)
	rep.set("uring.wait_syscalls_per_kread", "count", wait)

	// An O_DIRECT read is at least one aligned block; when the open fell
	// back to buffered (storage.direct_fallback = 1) this reads 4 KiB
	// blocks through the page cache instead.
	align := max(dds.DirectAlign(), 4096)
	perSec, _, _, err = ringReads(dds.File(), b.data.EdgeBytes, align, alignedBuf(512*align, align), r, budget)
	if err != nil {
		return err
	}
	rep.set("uring.reads_per_s.direct", "1/s", perSec)
	return nil
}

// neighborSlab reads a contiguous run of the edge file: a million
// neighbor ids, degree-biased exactly as the ids of a frontier are.
func neighborSlab(ds *storage.Dataset, edgeBytes int64) ([]uint32, error) {
	n := min(int64(1<<20), edgeBytes/storage.EntryBytes)
	raw := make([]byte, n*storage.EntryBytes)
	off := (edgeBytes/2 - int64(len(raw))/2) / storage.EntryBytes * storage.EntryBytes
	if _, err := ds.ReadAt(raw, max(off, 0)); err != nil {
		return nil, err
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(raw[i*storage.EntryBytes:])
	}
	return ids, nil
}

// probeCache builds both caches at the benchmark's 25 % budgets, directly,
// and times lookups of frontier-shaped ids.
func (b *bench) probeCache(rep *report, ds *storage.Dataset) error {
	t0 := time.Now()
	hot, budget, err := buildNeighborCache(ds, b.data.EdgeBytes/4)
	if err != nil {
		return err
	}
	rep.set("cache.build_s", "s", since(t0))
	rep.set("cache.nodes", "count", float64(hot.Nodes()))
	rep.set("cache.bytes", "B", float64(hot.Bytes()))
	rep.set("memctl.budget_bytes", "B", float64(budget.Limit()))
	rep.set("memctl.charged_bytes", "B", float64(budget.Used()))
	rep.set("memctl.budget_used_frac", "ratio", float64(budget.Used())/float64(budget.Limit()))

	ids, err := neighborSlab(ds, b.data.EdgeBytes)
	if err != nil {
		return err
	}
	var hits int
	t0 = time.Now()
	for _, v := range ids {
		if hot.Lookup(v) != nil {
			hits++
		}
	}
	rep.set("cache.lookup_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(len(ids)))
	if hits == 0 {
		rep.Notes = append(rep.Notes, "cache probe: no lookup hit")
	}

	t0 = time.Now()
	if _, _, err := buildFeatureCache(ds, b.data.FeatBytes/4); err != nil {
		return err
	}
	rep.set("cache.feat_build_s", "s", since(t0))
	return nil
}

// probeSample times the two sample-package kernels on inputs shaped by
// the graph: Floyd draws over the degrees a frontier meets, and
// sort+dedup over neighbor-id runs.
func (b *bench) probeSample(rep *report, ds *storage.Dataset) error {
	ids, err := neighborSlab(ds, b.data.EdgeBytes)
	if err != nil {
		return err
	}
	const fanout = 20
	r := newRNG(b.seed)
	out := make([]int, 0, fanout)
	var draws int64
	t0 := time.Now()
	for _, v := range ids {
		if deg := int(ds.Degree(v)); deg > 0 {
			out = floyd(&r, deg, fanout, out[:0])
			draws += int64(len(out))
		}
	}
	rep.set("sample.floyd_ns_per_draw", "ns", float64(time.Since(t0).Nanoseconds())/float64(max(draws, 1)))

	const run = 1 << 16
	var elems int64
	var spent time.Duration
	scratch := make([]uint32, run)
	for lo := 0; lo+run <= len(ids); lo += run {
		copy(scratch, ids[lo:lo+run])
		t0 = time.Now()
		sortDedup(scratch)
		spent += time.Since(t0)
		elems += run
	}
	if elems == 0 {
		copy(scratch, ids)
		t0 = time.Now()
		sortDedup(scratch[:len(ids)])
		spent, elems = time.Since(t0), int64(len(ids))
	}
	rep.set("sample.sortdedup_ns_per_elem", "ns", float64(spent.Nanoseconds())/float64(elems))
	return nil
}
