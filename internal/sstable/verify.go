package sstable

import (
	"fmt"
	"io"

	"lethe/internal/base"
)

// VerifyStats summarizes one file's integrity walk.
type VerifyStats struct {
	// Blocks is the number of live data blocks/pages checked.
	Blocks int
	// DroppedBlocks is the number of blocks skipped because a secondary
	// range delete removed them.
	DroppedBlocks int
	// Entries is the total number of entries decoded across live blocks.
	Entries int
	// Bytes is the total sealed size of the live blocks checked.
	Bytes int64
}

// VerifyIntegrity re-reads the file from disk and checks everything the
// format promises: footer magic/version and meta-block CRC, meta-block
// decode, index ordering (tiles disjoint and ascending on S, block offsets
// inside the data region), every live block's CRC, entry framing, in-block
// S-order, and agreement between each block's contents and its metadata
// (entry count, S fences). Any failure wraps ErrCorruption.
//
// It deliberately does not trust the state loaded at open time: `lethe
// verify` runs it against files that may have been damaged since.
func (r *Reader) VerifyIntegrity() (VerifyStats, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var vs VerifyStats

	// Footer and meta block, re-read and re-checked from disk.
	meta, tiles, _, err := readMeta(r.f)
	if err != nil {
		return vs, fmt.Errorf("sstable: verify: %w", err)
	}

	// Index ordering: tiles disjoint and ascending on S, block fences inside
	// their tile, offsets inside the data region. (Block offsets are not
	// monotone — partial drops relocate — but must stay in bounds.)
	for ti := range tiles {
		t := &tiles[ti]
		if base.CompareUserKeys(t.MinS, t.MaxS) > 0 {
			return vs, fmt.Errorf("sstable: verify: tile %d fence inverted: %w", ti, ErrCorruption)
		}
		if ti > 0 && base.CompareUserKeys(tiles[ti-1].MaxS, t.MinS) >= 0 {
			return vs, fmt.Errorf("sstable: verify: tiles %d and %d overlap on S: %w", ti-1, ti, ErrCorruption)
		}
		for pi := range t.Pages {
			pm := &t.Pages[pi]
			if pm.Dropped {
				vs.DroppedBlocks++
				continue
			}
			if base.CompareUserKeys(pm.MinS, t.MinS) < 0 || base.CompareUserKeys(pm.MaxS, t.MaxS) > 0 {
				return vs, fmt.Errorf("sstable: verify: block %d.%d fences escape tile: %w", ti, pi, ErrCorruption)
			}
			if pm.Offset < 0 || pm.Offset+int64(pm.Bytes) > meta.DataEnd {
				return vs, fmt.Errorf("sstable: verify: block %d.%d spans [%d,%d) outside data region [0,%d): %w",
					ti, pi, pm.Offset, pm.Offset+int64(pm.Bytes), meta.DataEnd, ErrCorruption)
			}

			sealed := make([]byte, pm.Bytes)
			if _, err := r.f.ReadAt(sealed, pm.Offset); err != nil && err != io.EOF {
				return vs, fmt.Errorf("sstable: verify read block %d.%d: %w", ti, pi, err)
			}
			count, err := verifyBlock(sealed, pm)
			if err != nil {
				return vs, fmt.Errorf("sstable: verify block %d.%d: %w", ti, pi, err)
			}
			vs.Blocks++
			vs.Entries += count
			vs.Bytes += int64(pm.Bytes)
		}
	}
	if vs.Entries != meta.NumEntries {
		return vs, fmt.Errorf("sstable: verify: live blocks hold %d entries, meta says %d: %w",
			vs.Entries, meta.NumEntries, ErrCorruption)
	}
	return vs, nil
}

// verifyBlock checks one sealed block against its descriptor.
func verifyBlock(sealed []byte, pm *PageMeta) (int, error) {
	if _, err := validateBlock(sealed); err != nil {
		return 0, err
	}
	payload, err := openPage(sealed)
	if err != nil {
		return 0, err
	}
	entries, err := decodeBlock(payload)
	if err != nil {
		return 0, err
	}
	if len(entries) != pm.Count {
		return 0, fmt.Errorf("block holds %d entries, meta says %d: %w", len(entries), pm.Count, ErrCorruption)
	}
	keyBytes := 0
	for i := range entries {
		keyBytes += len(entries[i].Key.UserKey)
	}
	if keyBytes != pm.KeyBytes {
		return 0, fmt.Errorf("block holds %d key bytes, meta says %d: %w", keyBytes, pm.KeyBytes, ErrCorruption)
	}
	if len(entries) > 0 {
		if base.CompareUserKeys(entries[0].Key.UserKey, pm.MinS) != 0 ||
			base.CompareUserKeys(entries[len(entries)-1].Key.UserKey, pm.MaxS) != 0 {
			return 0, fmt.Errorf("block fences disagree with contents: %w", ErrCorruption)
		}
	}
	return len(entries), nil
}
