// Package base defines the fundamental key, entry, and clock types shared by
// every layer of the Lethe engine: the memory buffer, the write-ahead log,
// the sorted-run (sstable) format, and the LSM tree itself.
//
// Terminology follows the paper: S is the sort key on which runs are ordered
// and queried; D is the secondary delete key (e.g. a timestamp) on which
// secondary range deletes operate. Entries are versioned by a monotonically
// increasing sequence number, and a Kind distinguishes values from the
// various tombstone flavors.
package base

import (
	"bytes"
	"fmt"
)

// Kind identifies what an internal entry represents.
type Kind uint8

const (
	// KindSet is a regular key-value pair.
	KindSet Kind = iota
	// KindDelete is a point tombstone: it logically invalidates every older
	// entry with the same sort key.
	KindDelete
	// KindRangeDelete is a range tombstone on the sort key. Its user key is
	// the inclusive start of the range and its value holds the exclusive end.
	KindRangeDelete
	// KindSecondaryRangeDelete is the write-ahead-log record of a secondary
	// range delete (see MakeSecondaryRangeDelete). It is only ever replayed:
	// no buffer or sstable holds one.
	KindSecondaryRangeDelete
	numKinds
)

// String implements fmt.Stringer for debugging output.
func (k Kind) String() string {
	switch k {
	case KindSet:
		return "SET"
	case KindDelete:
		return "DEL"
	case KindRangeDelete:
		return "RANGEDEL"
	case KindSecondaryRangeDelete:
		return "SRD"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k < numKinds }

// SeqNum is the insertion-driven sequence number assigned to every entry, as
// RocksDB does; FADE derives tombstone ages from it (via the clock captured
// at insertion) and readers use it to order versions of the same key.
type SeqNum uint64

// MaxSeqNum is the largest representable sequence number. Lookups use it so
// that every visible version compares at-or-before it.
const MaxSeqNum SeqNum = 1<<56 - 1

// Trailer packs a sequence number and a kind into a single uint64, with the
// kind in the low byte, mirroring the on-disk ordering trick used by
// LevelDB-lineage engines: for equal user keys, larger trailers (newer
// entries) sort first.
type Trailer uint64

// MakeTrailer builds a trailer from a sequence number and kind.
func MakeTrailer(seq SeqNum, kind Kind) Trailer {
	return Trailer(uint64(seq)<<8 | uint64(kind))
}

// SeqNum extracts the sequence number from the trailer.
func (t Trailer) SeqNum() SeqNum { return SeqNum(t >> 8) }

// Kind extracts the kind from the trailer.
func (t Trailer) Kind() Kind { return Kind(t & 0xff) }

// InternalKey is a user (sort) key together with its version metadata.
type InternalKey struct {
	UserKey []byte
	Trailer Trailer
}

// MakeInternalKey assembles an InternalKey.
func MakeInternalKey(userKey []byte, seq SeqNum, kind Kind) InternalKey {
	return InternalKey{UserKey: userKey, Trailer: MakeTrailer(seq, kind)}
}

// SeqNum returns the key's sequence number.
func (k InternalKey) SeqNum() SeqNum { return k.Trailer.SeqNum() }

// Kind returns the key's kind.
func (k InternalKey) Kind() Kind { return k.Trailer.Kind() }

// String renders the key for debugging.
func (k InternalKey) String() string {
	return fmt.Sprintf("%q#%d,%s", k.UserKey, k.SeqNum(), k.Kind())
}

// Clone returns a deep copy of the key, safe to retain after the source
// buffer is reused.
func (k InternalKey) Clone() InternalKey {
	return InternalKey{UserKey: append([]byte(nil), k.UserKey...), Trailer: k.Trailer}
}

// Compare orders internal keys: ascending by user key, then descending by
// trailer so that newer versions of the same user key sort first.
func (k InternalKey) Compare(other InternalKey) int {
	if c := bytes.Compare(k.UserKey, other.UserKey); c != 0 {
		return c
	}
	switch {
	case k.Trailer > other.Trailer:
		return -1
	case k.Trailer < other.Trailer:
		return +1
	default:
		return 0
	}
}

// CompareUserKeys orders raw sort keys. It is the single comparator used
// throughout the engine so that every component agrees on the key order.
func CompareUserKeys(a, b []byte) int { return bytes.Compare(a, b) }
