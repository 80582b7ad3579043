package main

// Inputs are made here from -seed and nothing else: which targets an
// epoch visits and in what order, what each request asks for, and the
// sampling seed of every batch and request. The graph itself never
// depends on -seed. The program under test receives only these values.

import (
	"math/rand"
	"sort"
	"strconv"
)

const (
	splitSalt = 0x7261696e // "rain": membership of the fixed 10 % train split
	orderSalt = 0x6f726472 // "ordr": the split's fixed pseudo-random order
)

// trainSplit is the fixed 10 % of the nodes the epoch and train
// workloads draw targets from, in a fixed order that is unrelated to
// node id (R-MAT puts the hubs at low ids, so a prefix of the split in id
// order would not look like the whole).
func trainSplit(nodes int64) []uint32 {
	var split []uint32
	for v := int64(0); v < nodes; v++ {
		if mix(splitSalt, uint64(v))%10 == 0 {
			split = append(split, uint32(v))
		}
	}
	sort.Slice(split, func(i, j int) bool {
		return mix(orderSalt, uint64(split[i])) < mix(orderSalt, uint64(split[j]))
	})
	return split
}

// epochWindows returns the timed windows' targets and the warm-up
// window's. The multiset of timed targets is the same for every seed —
// the first windows×perWindow entries of the split repeated end to end —
// and the seed only decides their order, hence which targets share a
// mini-batch. That keeps the exact device-byte counts comparable across
// seeds to well within their 1 % bound while still changing under a
// different seed.
func epochWindows(split []uint32, seed uint64, windows, perWindow int) (timed [][]uint32, warm []uint32) {
	pool := make([]uint32, (windows+1)*perWindow)
	for i := range pool {
		pool[i] = split[i%len(split)]
	}
	r := rand.New(rand.NewSource(int64(seed)))
	body, tail := pool[:windows*perWindow], pool[windows*perWindow:]
	r.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
	r.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	for w := 0; w < windows; w++ {
		timed = append(timed, body[w*perWindow:(w+1)*perWindow])
	}
	return timed, tail
}

// Serve request shape (see README.md: one full chunk per request so a
// flush is triggered by fill, not by the 2 ms batch-window timer).
const (
	maxWindowRequests = 1 << 20 // request ids: stream × this + index
	requestTargets    = 256
	zipfS             = 1.1
	featuresEvery     = 4
)

var serveFanouts = []int{10, 5}

// request is one POST /v1/sample the load generator sends.
type request struct {
	id       int
	targets  []uint32
	features bool
	seed     uint64
	body     []byte
}

// rankMultiplier returns the multiplier of the fixed bijection
// rank → (rank·mult + 7919) mod nodes that spreads Zipf ranks over the
// node ids, so popularity is skewed but unrelated to degree.
func rankMultiplier(nodes uint64) uint64 {
	mult := uint64(611953)
	for gcd(mult, nodes) != 1 {
		mult += 2
	}
	return mult
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// clientRequests is the request stream of one client in one window
// (window -1 is the warm-up, -2 the correctness check's). Request i is a
// pure function of (seed, window, client, i) — not of n — so serve_shard2
// is sent byte for byte what serve_closed is sent, only more of it per
// window.
func clientRequests(nodes int64, seed uint64, window, client, clients, n int) []request {
	stream := uint64(window+2)*uint64(clients) + uint64(client)
	r := rand.New(rand.NewSource(int64(mix(seed, stream))))
	z := rand.NewZipf(r, zipfS, 1, uint64(nodes-1))
	mult := rankMultiplier(uint64(nodes))
	reqs := make([]request, n)
	for i := range reqs {
		id := int(stream)*maxWindowRequests + i
		rq := request{
			id:       id,
			targets:  make([]uint32, requestTargets),
			features: i%featuresEvery == featuresEvery-1,
			seed:     mix(seed^0x72657173, uint64(id)),
		}
		for k := range rq.targets {
			rq.targets[k] = uint32((z.Uint64()*mult + 7919) % uint64(nodes))
		}
		rq.body = encodeRequest(rq)
		reqs[i] = rq
	}
	return reqs
}

func encodeRequest(rq request) []byte {
	b := make([]byte, 0, 16+8*len(rq.targets))
	b = append(b, `{"targets":[`...)
	for i, v := range rq.targets {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(v), 10)
	}
	b = append(b, `],"fanouts":[`...)
	for i, f := range serveFanouts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(f), 10)
	}
	b = append(b, `],"seed":`...)
	b = strconv.AppendUint(b, rq.seed, 10)
	if rq.features {
		b = append(b, `,"features":true`...)
	}
	return append(b, '}')
}
