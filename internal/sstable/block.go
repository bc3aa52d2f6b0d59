package sstable

import (
	"encoding/binary"
	"fmt"

	"lethe/internal/base"
)

// This file implements the data block codec: prefix-compressed entries with
// restart points, the in-block binary search that rides them, and the full
// decode used by scans and the block cache.
//
// Block payload layout (the payload is what sealPage wraps with a CRC):
//
//	entry*      prefix-compressed entries, S-ordered
//	restarts    uint32 LE × numRestarts — payload offsets of restart entries
//	numRestarts uint32 LE
//
// Each entry is framed as
//
//	shared   uvarint  bytes shared with the previous entry's user key
//	unshared uvarint  bytes of user key following the shared prefix
//	valueLen uvarint  value length
//	trailer  uvarint  internal-key trailer (seq << 8 | kind)
//	dkey     uvarint  secondary delete key
//	key      unshared bytes of the user key
//	value    valueLen bytes
//
// Every restartInterval-th entry is a restart point: it stores its full key
// (shared = 0), so a reader can binary-search the restart array comparing
// full keys straight out of the raw block, then decode forward at most
// restartInterval entries — no full-block materialization on the point-
// lookup path.

// restartInterval is the number of entries between restart points. Smaller
// values cost index space but shorten the forward decode after a restart
// seek; 16 is the LevelDB/Pebble lineage default.
const restartInterval = 16

// blockTrailerLen is the fixed tail of a block payload: the numRestarts
// uint32. (The restart array itself is variable.)
const blockTrailerLen = 4

// sharedPrefixLen returns the length of the longest common prefix of a and b.
func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// blockWriter accumulates one prefix-compressed data block.
type blockWriter struct {
	buf      []byte
	restarts []uint32
	n        int
	lastKey  []byte
}

// reset clears the writer for the next block, keeping buffer capacity.
func (w *blockWriter) reset() {
	w.buf = w.buf[:0]
	w.restarts = w.restarts[:0]
	w.n = 0
	w.lastKey = w.lastKey[:0]
}

// add appends one entry. Entries must arrive in ascending user-key order.
func (w *blockWriter) add(e base.Entry) {
	shared := 0
	if w.n%restartInterval == 0 {
		w.restarts = append(w.restarts, uint32(len(w.buf)))
	} else {
		shared = sharedPrefixLen(w.lastKey, e.Key.UserKey)
	}
	unshared := len(e.Key.UserKey) - shared
	w.buf = base.AppendUvarint(w.buf, uint64(shared))
	w.buf = base.AppendUvarint(w.buf, uint64(unshared))
	w.buf = base.AppendUvarint(w.buf, uint64(len(e.Value)))
	w.buf = base.AppendUvarint(w.buf, uint64(e.Key.Trailer))
	w.buf = base.AppendUvarint(w.buf, uint64(e.DKey))
	w.buf = append(w.buf, e.Key.UserKey[shared:]...)
	w.buf = append(w.buf, e.Value...)
	w.lastKey = append(w.lastKey[:0], e.Key.UserKey...)
	w.n++
}

// finish appends the restart array and trailer, returning the payload. The
// writer must be reset before reuse.
func (w *blockWriter) finish() []byte {
	for _, r := range w.restarts {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, r)
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(w.restarts)))
	return w.buf
}

// splitBlockPayload separates a payload into its entry region and restart
// array, validating the trailer against the payload length.
func splitBlockPayload(payload []byte) (entries []byte, restarts []byte, numRestarts int, err error) {
	if len(payload) < blockTrailerLen {
		return nil, nil, 0, fmt.Errorf("sstable: block shorter than trailer: %w", ErrCorruption)
	}
	n := int(binary.LittleEndian.Uint32(payload[len(payload)-blockTrailerLen:]))
	restartsLen := n * 4
	if n < 0 || restartsLen+blockTrailerLen > len(payload) {
		return nil, nil, 0, fmt.Errorf("sstable: restart count %d overflows block: %w", n, ErrCorruption)
	}
	entriesEnd := len(payload) - blockTrailerLen - restartsLen
	return payload[:entriesEnd], payload[entriesEnd : len(payload)-blockTrailerLen], n, nil
}

// blockEntryHeader decodes one entry's varint frame starting at b, returning
// the frame fields and the remainder positioned at the key suffix.
func blockEntryHeader(b []byte) (shared, unshared, valueLen int, trailer base.Trailer, dkey base.DeleteKey, rest []byte, err error) {
	var v uint64
	if v, b, err = base.Uvarint(b); err != nil {
		return
	}
	shared = int(v)
	if v, b, err = base.Uvarint(b); err != nil {
		return
	}
	unshared = int(v)
	if v, b, err = base.Uvarint(b); err != nil {
		return
	}
	valueLen = int(v)
	if v, b, err = base.Uvarint(b); err != nil {
		return
	}
	trailer = base.Trailer(v)
	if v, b, err = base.Uvarint(b); err != nil {
		return
	}
	dkey = base.DeleteKey(v)
	if shared < 0 || unshared < 0 || valueLen < 0 || unshared+valueLen > len(b) {
		err = fmt.Errorf("sstable: block entry frame overflows block: %w", ErrCorruption)
		return
	}
	rest = b
	return
}

// decodeBlock fully materializes a block payload: every entry's user key is
// assembled into a fresh arena (prefix-compressed keys are not contiguous in
// the raw block), values alias the payload. The returned entries pin both
// the arena and the payload — exactly the shape the page cache stores.
//
// A header-only pre-pass sizes the entry slice and key arena exactly, so the
// decode costs two allocations per block regardless of entry count — scans
// decode every block of every tile they cross, and append-doubling here is
// the difference between 2 and ~10 allocations per block.
func decodeBlock(payload []byte) ([]base.Entry, error) {
	entryBytes, _, _, err := splitBlockPayload(payload)
	if err != nil {
		return nil, err
	}
	count, keyBytes := 0, 0
	for b := entryBytes; len(b) > 0; {
		shared, unshared, valueLen, _, _, rest, err := blockEntryHeader(b)
		if err != nil {
			return nil, err
		}
		count++
		keyBytes += shared + unshared
		b = rest[unshared+valueLen:]
	}
	// Keys are materialized into the payload's spare capacity when the caller
	// provided it (readPageRaw over-allocates by the block's recorded
	// KeyBytes), collapsing the decode to one entry-slice allocation; a bare
	// payload gets a dedicated arena. Either way the arena never regrows.
	arena := payload[len(payload):]
	if cap(arena) < keyBytes {
		arena = make([]byte, 0, keyBytes)
	}
	entries := make([]base.Entry, 0, count)
	var prevKey []byte
	for b := entryBytes; len(b) > 0; {
		shared, unshared, valueLen, trailer, dkey, rest, err := blockEntryHeader(b)
		if err != nil {
			return nil, err
		}
		if shared > len(prevKey) {
			return nil, fmt.Errorf("sstable: shared prefix %d exceeds previous key %d: %w",
				shared, len(prevKey), ErrCorruption)
		}
		arena = append(arena, prevKey[:shared]...)
		arena = append(arena, rest[:unshared]...)
		key := arena[len(arena)-shared-unshared:]
		e := base.Entry{
			Key:   base.InternalKey{UserKey: key, Trailer: trailer},
			DKey:  dkey,
			Value: rest[unshared : unshared+valueLen],
		}
		if !e.Key.Kind().Valid() {
			return nil, fmt.Errorf("sstable: block entry kind invalid: %w", ErrCorruption)
		}
		entries = append(entries, e)
		prevKey = key
		b = rest[unshared+valueLen:]
	}
	return entries, nil
}

// restartKeyAt returns the full user key of the restart entry at payload
// offset off. Restart entries store their whole key (shared must be 0).
func restartKeyAt(entryBytes []byte, off int) ([]byte, error) {
	if off < 0 || off >= len(entryBytes) {
		return nil, fmt.Errorf("sstable: restart offset %d out of range: %w", off, ErrCorruption)
	}
	shared, unshared, _, _, _, rest, err := blockEntryHeader(entryBytes[off:])
	if err != nil {
		return nil, err
	}
	if shared != 0 {
		return nil, fmt.Errorf("sstable: restart entry has shared prefix %d: %w", shared, ErrCorruption)
	}
	return rest[:unshared], nil
}

// blockSeekGE finds the first entry with user key >= key without decoding
// the whole block: binary search over the restart points (whole keys, read
// straight from the raw payload), then a forward decode of at most
// restartInterval entries. The returned entry's key aliases a fresh buffer
// and its value aliases payload.
func blockSeekGE(payload []byte, key []byte) (base.Entry, bool, error) {
	entryBytes, restarts, n, err := splitBlockPayload(payload)
	if err != nil {
		return base.Entry{}, false, err
	}
	if n == 0 {
		return base.Entry{}, false, nil
	}
	// Find the last restart whose key is <= key: binary search for the first
	// restart with key > key, then step back one. Starting at that restart,
	// the target (if present) is reached before the next restart.
	lo, hi := 0, n // invariant: restart[lo-1].key <= key < restart[hi].key
	var searchErr error
	for lo < hi {
		mid := (lo + hi) / 2
		off := int(binary.LittleEndian.Uint32(restarts[mid*4:]))
		rk, err := restartKeyAt(entryBytes, off)
		if err != nil {
			searchErr = err
			break
		}
		if base.CompareUserKeys(rk, key) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if searchErr != nil {
		return base.Entry{}, false, searchErr
	}
	start := lo - 1
	if start < 0 {
		start = 0
	}
	pos := int(binary.LittleEndian.Uint32(restarts[start*4:]))
	if pos < 0 || pos > len(entryBytes) {
		return base.Entry{}, false, fmt.Errorf("sstable: restart offset %d out of range: %w", pos, ErrCorruption)
	}
	var keyBuf []byte
	for b := entryBytes[pos:]; len(b) > 0; {
		shared, unshared, valueLen, trailer, dkey, rest, err := blockEntryHeader(b)
		if err != nil {
			return base.Entry{}, false, err
		}
		if shared > len(keyBuf) {
			return base.Entry{}, false, fmt.Errorf("sstable: shared prefix %d exceeds previous key %d: %w",
				shared, len(keyBuf), ErrCorruption)
		}
		keyBuf = append(keyBuf[:shared], rest[:unshared]...)
		if base.CompareUserKeys(keyBuf, key) >= 0 {
			ik := base.InternalKey{UserKey: keyBuf, Trailer: trailer}
			if !ik.Kind().Valid() {
				return base.Entry{}, false, fmt.Errorf("sstable: block entry kind invalid: %w", ErrCorruption)
			}
			return base.Entry{Key: ik, DKey: dkey, Value: rest[unshared : unshared+valueLen]}, true, nil
		}
		b = rest[unshared+valueLen:]
	}
	return base.Entry{}, false, nil
}

// validateBlock structurally checks a sealed block (see validBlockEntries)
// and returns its entry count. The corruption tests use it.
func validateBlock(sealed []byte) (int, error) {
	entries, err := validBlockEntries(sealed)
	return len(entries), err
}

// validBlockEntries structurally checks a sealed block — CRC, restart
// trailer, entry framing, restart offsets landing on entry boundaries, and
// strict S-order — and returns its decoded entries. verify uses it; the read
// path trusts the CRC and per-entry bounds checks instead.
func validBlockEntries(sealed []byte) ([]base.Entry, error) {
	payload, err := openPage(sealed)
	if err != nil {
		return nil, err
	}
	entryBytes, restarts, n, err := splitBlockPayload(payload)
	if err != nil {
		return nil, err
	}
	entries, err := decodeBlock(payload)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(entries); i++ {
		if base.CompareUserKeys(entries[i-1].Key.UserKey, entries[i].Key.UserKey) >= 0 {
			return nil, fmt.Errorf("sstable: block keys out of order at entry %d: %w", i, ErrCorruption)
		}
	}
	want := (len(entries) + restartInterval - 1) / restartInterval
	if n != want {
		return nil, fmt.Errorf("sstable: %d restart points for %d entries (want %d): %w",
			n, len(entries), want, ErrCorruption)
	}
	prev := -1
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint32(restarts[i*4:]))
		if off <= prev || off >= len(entryBytes) {
			return nil, fmt.Errorf("sstable: restart offset %d not ascending in block: %w", off, ErrCorruption)
		}
		if _, err := restartKeyAt(entryBytes, off); err != nil {
			return nil, err
		}
		prev = off
	}
	return entries, nil
}
