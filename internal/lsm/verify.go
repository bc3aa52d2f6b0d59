package lsm

import (
	"errors"
	"fmt"

	"lethe/internal/sstable"
)

// VerifyResult totals an integrity walk over the live sstables of one engine
// instance.
type VerifyResult struct {
	// Files is the number of live sstables visited.
	Files int
	// Blocks, DroppedBlocks, Entries and Bytes sum the per-file walks.
	sstable.VerifyStats
	// CorruptFiles counts files that failed verification; the joined error
	// returned alongside names each one.
	CorruptFiles int
}

// VerifyTables walks every live sstable on a pinned snapshot and verifies it
// end to end: footer and metadata checksums, per-block CRCs, index/fence
// ordering, and full block decodes (see sstable.VerifyIntegrity). It keeps
// going after a corrupt file so one bad table doesn't mask others; the
// returned error joins one entry per corrupt file. Reads proceed concurrently
// — verification takes no engine-wide lock.
func (db *DB) VerifyTables() (VerifyResult, error) {
	rh, err := db.acquireReadHandle()
	if err != nil {
		return VerifyResult{}, err
	}
	defer rh.release()

	var vr VerifyResult
	var errs []error
	for _, runs := range rh.v.levels {
		for _, r := range runs {
			for _, h := range r {
				vr.Files++
				vs, err := h.r.VerifyIntegrity()
				Accumulate(&vr.VerifyStats, vs)
				if err != nil {
					vr.CorruptFiles++
					errs = append(errs, fmt.Errorf("%s: %w", h.name, err))
				}
			}
		}
	}
	return vr, errors.Join(errs...)
}

// ErrCorruption is the typed error every integrity failure wraps.
var ErrCorruption = sstable.ErrCorruption
