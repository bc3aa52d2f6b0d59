package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lethe"
)

// cell models one position: the version and delete key of its newest write,
// and whether that write is still live. Versions keep counting across
// deletes, so a resurrected old value never passes for the current one.
type cell struct {
	state uint32 // ver<<1 | live
	dkey  uint32
}

func (c cell) ver() uint32 { return c.state >> 1 }
func (c cell) live() bool  { return c.state&1 == 1 }

// oracle is the exact model every read is checked against. A client reads
// and writes only the cells of its own stripes; the one cross-client effect,
// a secondary range delete, is published through srdPending and srdDone.
//
// Every secondary range delete covers the delete keys [0, T). Client 0
// raises srdPending to T before the call and srdDone to T after it returns.
// A read that began when srdDone was d and ended when srdPending was q must
// not see a cell whose delete key is below d, must see one whose delete key
// is at or above q, and may go either way in between: it raced the delete.
type oracle struct {
	cells      []cell
	clients    int
	valueSize  int
	srdPending atomic.Uint32
	srdDone    atomic.Uint32
	// progress[c] is the delete key of the write client c may have in
	// flight; a secondary range delete stays below every client's, so no
	// concurrent put can land inside its range after it has run.
	progress []atomic.Uint32

	failed atomic.Int64
	mu     sync.Mutex
	msgs   []string
}

func newOracle(clients, valueSize int) *oracle {
	return &oracle{cells: make([]cell, universe), clients: clients, valueSize: valueSize,
		progress: make([]atomic.Uint32, clients)}
}

// clone copies the model, so every set-up of a run starts from the same
// post-preload state.
func (o *oracle) clone() *oracle {
	n := newOracle(o.clients, o.valueSize)
	copy(n.cells, o.cells)
	return n
}

const maxFailureMessages = 10

func (o *oracle) failf(format string, args ...any) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.msgs) < maxFailureMessages {
		o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

type expectation uint8

const (
	expAbsent expectation = iota
	expPresent
	expEither
)

func (o *oracle) expect(p uint32, done0, pend1 uint32) expectation {
	c := o.cells[p]
	switch {
	case !c.live() || c.dkey < done0:
		return expAbsent
	case c.dkey < pend1:
		return expEither
	}
	return expPresent
}

// put records the next version of p and returns it.
func (o *oracle) put(p, dkey uint32) uint32 {
	c := &o.cells[p]
	v := c.ver() + 1
	c.state, c.dkey = v<<1|1, dkey
	return v
}

func (o *oracle) del(p uint32) { o.cells[p].state &^= 1 }

// valueOK reports whether v is exactly version ver of position p.
func (o *oracle) valueOK(v []byte, p, ver uint32, scratch []byte) bool {
	if len(v) != o.valueSize {
		return false
	}
	fillValue(scratch[:o.valueSize], p, ver)
	return bytes.Equal(v, scratch[:o.valueSize])
}

// foreignValueOK checks a value read from another client's stripe, whose
// model this client may not consult: the value must name its own key and be
// internally consistent for the version it claims.
func (o *oracle) foreignValueOK(v []byte, p uint32, scratch []byte) bool {
	if len(v) != o.valueSize || binary.LittleEndian.Uint32(v) != p {
		return false
	}
	return o.valueOK(v, p, binary.LittleEndian.Uint32(v[4:]), scratch)
}

// checkGet judges one point read of an own position.
func (o *oracle) checkGet(what string, p uint32, v []byte, err error, done0, pend1 uint32, scratch []byte) {
	if err != nil && !errors.Is(err, lethe.ErrNotFound) {
		o.failf("%s %d: undocumented error: %v", what, p, err)
		return
	}
	exp := o.expect(p, done0, pend1)
	if err != nil {
		if exp == expPresent {
			o.failf("%s %d: not found, model has version %d", what, p, o.cells[p].ver())
		}
		return
	}
	if exp == expAbsent {
		o.failf("%s %d: found a value, model says absent", what, p)
		return
	}
	if !o.valueOK(v, p, o.cells[p].ver(), scratch) {
		o.failf("%s %d: value is not version %d", what, p, o.cells[p].ver())
	}
}

// scanChecker verifies an ascending stream of entries against the cells of
// one client (or, with client < 0, of every client): each entry must be
// allowed and correct, and no cell the model requires may be skipped.
type scanChecker struct {
	o            *oracle
	client       int
	what         string
	next         uint32 // first position not yet accounted for
	done0, pend1 uint32
	scratch      []byte
}

func (sc *scanChecker) mine(p uint32) bool {
	return sc.client < 0 || owner(p, sc.o.clients) == sc.client
}

// gap requires that no own cell in [sc.next, upto) had to be returned.
func (sc *scanChecker) gap(upto uint32) {
	for q := sc.next; q < upto; q++ {
		if sc.mine(q) && sc.o.expect(q, sc.done0, sc.pend1) == expPresent {
			sc.o.failf("%s: skipped live key %d", sc.what, q)
		}
	}
	sc.next = upto
}

func (sc *scanChecker) entry(key, value []byte) {
	p, ok := keyPos(key)
	if !ok {
		sc.o.failf("%s: foreign key %q", sc.what, key)
		return
	}
	if p < sc.next {
		sc.o.failf("%s: key %d out of order or below the start", sc.what, p)
		return
	}
	sc.gap(p)
	sc.next = p + 1
	if !sc.mine(p) {
		if !sc.o.foreignValueOK(value, p, sc.scratch) {
			sc.o.failf("%s: key %d carries a corrupt value", sc.what, p)
		}
		return
	}
	if sc.o.expect(p, sc.done0, sc.pend1) == expAbsent {
		sc.o.failf("%s: returned key %d, model says absent", sc.what, p)
		return
	}
	if !sc.o.valueOK(value, p, sc.o.cells[p].ver(), sc.scratch) {
		sc.o.failf("%s: key %d is not version %d", sc.what, p, sc.o.cells[p].ver())
	}
}

// verifyAll is the end-of-run check: a full scan must return exactly the
// model's live cells, and every table must pass its integrity walk. Only
// call it once the clients have stopped.
func (o *oracle) verifyAll(db *lethe.DB) {
	done := o.srdDone.Load()
	sc := &scanChecker{o: o, client: -1, what: "final scan", done0: done, pend1: done,
		scratch: make([]byte, o.valueSize)}
	err := db.Scan(nil, nil, func(key []byte, _ lethe.DeleteKey, value []byte) bool {
		sc.entry(key, value)
		return true
	})
	if err != nil {
		o.failf("final scan: %v", err)
		return
	}
	sc.gap(universe)
	if _, err := db.VerifyTables(); err != nil {
		o.failf("verify tables: %v", err)
	}
}

// liveUserBytes is the size of the data a user would say the database holds:
// key, delete key and value of every live cell.
func (o *oracle) liveUserBytes() int64 {
	done := o.srdDone.Load()
	var n int64
	for p := range o.cells {
		if o.expect(uint32(p), done, done) == expPresent {
			n++
		}
	}
	return n * int64(keyLen+8+o.valueSize)
}
