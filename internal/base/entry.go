package base

// DeleteKey is the secondary delete key D — typically a creation timestamp —
// on which secondary range deletes ("delete everything older than D days")
// operate. It is a fixed-width unsigned integer so delete tiles can order and
// fence on it cheaply.
type DeleteKey uint64

// Entry is a fully materialized internal entry: the versioned sort key, the
// secondary delete key, and the value. Tombstones carry an empty value
// (range tombstones reuse Value for the range's exclusive end key).
type Entry struct {
	Key   InternalKey
	DKey  DeleteKey
	Value []byte
}

// MakeEntry assembles an Entry for a regular put.
func MakeEntry(userKey []byte, seq SeqNum, kind Kind, dkey DeleteKey, value []byte) Entry {
	return Entry{Key: MakeInternalKey(userKey, seq, kind), DKey: dkey, Value: value}
}

// MakeSecondaryRangeDelete encodes a secondary range delete of [lo, hi) as a
// write-ahead-log entry: DKey holds lo and Value holds hi (8 bytes,
// little-endian). seq is the highest sequence number written before the
// delete, so recovery skips the record, as it does any other, once
// everything the delete could remove is durable in sstables.
func MakeSecondaryRangeDelete(lo, hi DeleteKey, seq SeqNum) Entry {
	return MakeEntry(nil, seq, KindSecondaryRangeDelete, lo, AppendUint64(nil, uint64(hi)))
}

// SecondaryRange returns the delete-key range a KindSecondaryRangeDelete
// entry deletes; ok is false for any other entry.
func (e Entry) SecondaryRange() (lo, hi DeleteKey, ok bool) {
	if e.Key.Kind() != KindSecondaryRangeDelete {
		return 0, 0, false
	}
	v, _, err := Uint64(e.Value)
	if err != nil {
		return 0, 0, false
	}
	return e.DKey, DeleteKey(v), true
}

// Clone deep-copies the entry so it can outlive the buffers it was parsed
// from.
func (e Entry) Clone() Entry {
	return Entry{
		Key:   e.Key.Clone(),
		DKey:  e.DKey,
		Value: append([]byte(nil), e.Value...),
	}
}

// Size returns the approximate in-memory footprint of the entry in bytes,
// used for buffer accounting (the paper's M = P·B·E).
func (e Entry) Size() int {
	return len(e.Key.UserKey) + 8 /* trailer */ + 8 /* dkey */ + len(e.Value)
}

// IsTombstone reports whether the entry logically deletes other entries.
func (e Entry) IsTombstone() bool {
	k := e.Key.Kind()
	return k == KindDelete || k == KindRangeDelete
}

// RangeTombstone is a decoded range delete on the sort key: it invalidates
// every entry with Start <= key < End and sequence number below its own.
type RangeTombstone struct {
	Start []byte
	End   []byte
	Seq   SeqNum
	DKey  DeleteKey // insertion timestamp surrogate for age accounting
}

// Contains reports whether the tombstone covers the given user key.
func (r RangeTombstone) Contains(userKey []byte) bool {
	return CompareUserKeys(r.Start, userKey) <= 0 && CompareUserKeys(userKey, r.End) < 0
}

// Covers reports whether the tombstone deletes an entry with the given user
// key and sequence number: the key must fall in the range and have been
// written before the tombstone.
func (r RangeTombstone) Covers(userKey []byte, seq SeqNum) bool {
	return seq < r.Seq && r.Contains(userKey)
}
