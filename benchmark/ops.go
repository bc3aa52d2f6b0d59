package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// The key space is the positions [0, universe); position p prints as the
// 11-byte key k%010d, so position order is key order. Ownership is striped:
// client (p/stripe)%clients is the only one that ever writes p, which is what
// lets each client keep an exact model of its own keys without locking.
// Positions with p%16 == 15 are never inserted, so "absent" reads probe keys
// interleaved with live ones (Bloom negatives inside populated files).
const (
	universe = 1 << 22
	stripe   = 1024
	keyLen   = 11
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opApply       // n puts, positions in extra[aux:aux+n]
	opRangeDelete // [p, p+n), inside one stripe
	opScan        // NewIter from p, read up to n entries
	opSnapshot    // NewSnapshot, n gets at extra[aux:aux+n], Release
	opSRScan      // SecondaryRangeScan over the last n delete keys
	opSRD         // SecondaryRangeDelete of the oldest tenth of the live window
	numOpKinds
)

var opKindNames = [numOpKinds]string{"get", "put", "delete", "apply", "rangedel",
	"scan", "snapshot", "srscan", "srd"}

// op is one generated operation. Fixed-size and pointer-free, so millions of
// them cost the garbage collector nothing while the engine is being timed.
type op struct {
	kind opKind
	n    uint16
	p    uint32
	aux  uint32
}

// mix gives operation shares in parts per thousand.
type mix struct {
	get         int
	putFresh    int
	putUpdate   int
	del         int
	rangeDel    int
	apply       int
	scan        int
	snapshot    int
	srscan      int
	absentGet   int  // share of gets aimed at never-inserted positions, per thousand gets
	hotGet      int  // share of gets aimed at the client's hot set, per thousand gets
	hotKeys     int  // hot-set size per client (the first hotKeys preloaded keys)
	recentGets  int  // >0: gets pick among the client's last recentGets inserted keys
	uniformPuts bool // puts draw uniform positions, so the put order is independent of key order
}

// stream is one client's generated input: its share of the preload and its
// operations, fixed before any timing starts.
type stream struct {
	preload []uint32
	ops     []op
	extra   []uint32
}

// hash folds the stream into 64 bits; equal seeds must give equal hashes.
func (s *stream) hash() uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, p := range s.preload {
		binary.LittleEndian.PutUint32(b[:], p)
		h.Write(b[:4])
	}
	for _, o := range s.ops {
		b[0], b[1] = byte(o.kind), 0
		binary.LittleEndian.PutUint16(b[2:], o.n)
		binary.LittleEndian.PutUint32(b[4:], o.p)
		binary.LittleEndian.PutUint32(b[8:], o.aux)
		h.Write(b[:])
	}
	for _, p := range s.extra {
		binary.LittleEndian.PutUint32(b[:], p)
		h.Write(b[:4])
	}
	return h.Sum64()
}

func owner(p uint32, clients int) int { return int(p/stripe) % clients }

func insertable(p uint32) bool { return p%16 != 15 }

// genClient tracks which of one client's positions are live while its stream
// is generated, so "update", "delete" and "get" can pick keys that exist at
// that point of the stream. Secondary range deletes are not simulated here;
// the run-time model decides what a read must return.
type genClient struct {
	id, clients int
	rng         *rand.Rand
	live        []uint32 // live positions, unordered
	where       []int32  // shared across clients: index into live, or -1
	s           stream
}

func (g *genClient) add(p uint32) {
	g.where[p] = int32(len(g.live))
	g.live = append(g.live, p)
}

func (g *genClient) remove(p uint32) {
	i := g.where[p]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.where[last] = i
	g.live = g.live[:len(g.live)-1]
	g.where[p] = -1
}

// ownPos draws a uniform position in one of this client's stripes.
func (g *genClient) ownPos() uint32 {
	st := uint32(g.rng.Intn(universe/stripe/g.clients))*uint32(g.clients) + uint32(g.id)
	return st*stripe + uint32(g.rng.Intn(stripe))
}

func (g *genClient) freshPos() uint32 {
	for {
		if p := g.ownPos(); insertable(p) && g.where[p] < 0 {
			return p
		}
	}
}

func (g *genClient) absentPos() uint32 {
	return g.ownPos() | 15
}

func (g *genClient) livePos() (uint32, bool) {
	if len(g.live) == 0 {
		return 0, false
	}
	return g.live[g.rng.Intn(len(g.live))], true
}

// recentPos picks among the last n positions added; only meaningful for
// workloads that never remove from live, where the tail is the newest keys.
func (g *genClient) recentPos(n int) (uint32, bool) {
	if n > len(g.live) {
		n = len(g.live)
	}
	if n == 0 {
		return 0, false
	}
	return g.live[len(g.live)-1-g.rng.Intn(n)], true
}

// generate builds the streams of nclients clients from seed. srdEvery > 0
// makes client 0 replace every srdEvery-th operation with a secondary range
// delete.
func (sp spec) generate(seed int64, nclients int) []stream {
	where := make([]int32, universe)
	for i := range where {
		where[i] = -1
	}
	gens := make([]*genClient, nclients)
	for c := range gens {
		gens[c] = &genClient{id: c, clients: nclients, where: where,
			rng: rand.New(rand.NewSource(seed*1000003 + int64(c)))}
	}
	m := sp.mix
	for c, g := range gens {
		n := sp.preload / nclients
		if c < sp.preload%nclients {
			n++
		}
		g.s.preload = make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			p := g.freshPos()
			g.add(p)
			g.s.preload = append(g.s.preload, p)
		}
		if m.hotKeys > n {
			m.hotKeys = n
		}
	}
	total := m.get + m.putFresh + m.putUpdate + m.del + m.rangeDel + m.apply +
		m.scan + m.snapshot + m.srscan
	out := make([]stream, nclients)
	for c, g := range gens {
		g.s.ops = make([]op, 0, sp.opsPerClient)
		for i := 0; i < sp.opsPerClient; i++ {
			if sp.srdEvery > 0 && g.id == 0 && i%sp.srdEvery == sp.srdEvery-1 {
				g.s.ops = append(g.s.ops, op{kind: opSRD})
				continue
			}
			g.s.ops = append(g.s.ops, g.next(g.rng.Intn(total), m, sp.scanLen))
		}
		out[c] = g.s
	}
	return out
}

// next maps r, uniform in [0, total of the shares), to an operation.
func (g *genClient) next(r int, m mix, scanLen int) op {
	// under consumes one share of r and reports whether r fell inside it.
	under := func(share int) bool {
		r -= share
		return r < 0
	}
	switch {
	case under(m.get):
		return g.genGet(m)
	case under(m.putFresh):
		return g.genPutFresh(m)
	case under(m.putUpdate):
		if p, ok := g.livePos(); ok {
			return op{kind: opPut, p: p}
		}
		return g.genPutFresh(m)
	case under(m.del):
		if p, ok := g.livePos(); ok {
			g.remove(p)
			return op{kind: opDelete, p: p}
		}
		return g.genPutFresh(m)
	case under(m.rangeDel):
		const span = 16
		p := g.ownPos()
		if p%stripe > stripe-span {
			p -= span
		}
		for q := p; q < p+span; q++ {
			if g.where[q] >= 0 {
				g.remove(q)
			}
		}
		return op{kind: opRangeDelete, p: p, n: span}
	case under(m.apply):
		const batch = 16
		o := op{kind: opApply, n: batch, aux: uint32(len(g.s.extra))}
		for i := 0; i < batch; i++ {
			p := g.freshPos()
			g.add(p)
			g.s.extra = append(g.s.extra, p)
		}
		return o
	case under(m.scan):
		return op{kind: opScan, p: uint32(g.rng.Intn(universe)), n: uint16(scanLen)}
	case under(m.snapshot):
		const gets = 10
		o := op{kind: opSnapshot, n: gets, aux: uint32(len(g.s.extra))}
		for i := 0; i < gets; i++ {
			g.s.extra = append(g.s.extra, g.genGet(m).p)
		}
		return o
	default:
		return op{kind: opSRScan, n: 64}
	}
}

func (g *genClient) genGet(m mix) op {
	r := g.rng.Intn(1000)
	if r < m.absentGet {
		return op{kind: opGet, p: g.absentPos()}
	}
	if m.hotKeys > 0 && g.rng.Intn(1000) < m.hotGet {
		// The hot set is the head of the preload, which no operation of a
		// hot-set workload deletes.
		return op{kind: opGet, p: g.s.preload[g.rng.Intn(m.hotKeys)]}
	}
	if m.recentGets > 0 {
		if p, ok := g.recentPos(m.recentGets); ok {
			return op{kind: opGet, p: p}
		}
	}
	if p, ok := g.livePos(); ok {
		return op{kind: opGet, p: p}
	}
	return op{kind: opGet, p: g.absentPos()}
}

func (g *genClient) genPutFresh(m mix) op {
	if m.uniformPuts {
		// Uniform over the client's stripes, so some puts land on live keys
		// and update them: the sort key is independent of the put order.
		for {
			if p := g.ownPos(); insertable(p) {
				if g.where[p] < 0 {
					g.add(p)
				}
				return op{kind: opPut, p: p}
			}
		}
	}
	p := g.freshPos()
	g.add(p)
	return op{kind: opPut, p: p}
}

// appendKey renders position p as k%010d without allocating.
func appendKey(dst []byte, p uint32) []byte {
	var b [keyLen]byte
	b[0] = 'k'
	for i := keyLen - 1; i >= 1; i-- {
		b[i] = byte('0' + p%10)
		p /= 10
	}
	return append(dst, b[:]...)
}

// keyPos parses a key written by appendKey; ok is false for anything else.
func keyPos(k []byte) (uint32, bool) {
	if len(k) != keyLen || k[0] != 'k' {
		return 0, false
	}
	var p uint64
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		p = p*10 + uint64(c-'0')
	}
	if p >= universe {
		return 0, false
	}
	return uint32(p), true
}

// fillValue writes the value of version ver of position p: the pair itself,
// then a pseudo-random tail derived from it, so a read can be checked byte
// for byte from the model's (p, ver) alone.
func fillValue(buf []byte, p, ver uint32) {
	binary.LittleEndian.PutUint32(buf[0:], p)
	binary.LittleEndian.PutUint32(buf[4:], ver)
	x := (uint64(p)<<32 | uint64(ver)) * 0x9e3779b97f4a7c15
	i := 8
	for ; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(x >> (8 * uint(i&7)))
	}
}
