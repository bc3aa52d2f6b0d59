// Package manifest persists the tree's structural metadata: which file
// numbers live in which level and run, the next file number, and the last
// committed sequence number.
//
// The sstables themselves are self-describing (their metadata block carries
// fences, filters, and FADE statistics) and are never modified once written,
// so the manifest stays small: it records structure, plus — per file a
// secondary range delete touched — what that delete dropped. Commits replace
// the whole manifest via write-temp + rename, which is atomic on every
// filesystem the engine targets.
package manifest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"lethe/internal/sstable"
	"lethe/internal/vfs"
)

// State is the persisted structure of the tree.
type State struct {
	// NextFileNum is the next unallocated sstable file number.
	NextFileNum uint64
	// LastSeq is the highest sequence number made durable by a flush; WAL
	// replay resumes above it.
	LastSeq uint64
	// Levels[l][r] lists the file numbers of run r of disk level l (level 1
	// is index 0). Runs are ordered newest-first within a level; files are
	// S-ordered within a run. Leveling keeps one run per level below the
	// first; tiering keeps up to T.
	Levels [][][]uint64
	// Remote lists the file numbers that live on the remote storage tier;
	// every other file is local. Tier membership is structural state: a
	// migration becomes durable only when the manifest naming the file in
	// this list commits, so a crash mid-copy rolls back to the local
	// original. Absent in manifests written before tiering existed, which
	// decode as all-local.
	Remote []uint64 `json:",omitempty"`
	// Drops records, per file a secondary range delete touched, the pages it
	// dropped and the delete-key intervals it excluded (see SetDrops). A
	// delete is durable once the manifest carrying its drops commits; the
	// file itself is never rewritten.
	Drops []FileDrops `json:",omitempty"`
}

// FileDrops is one entry of State.Drops: the drops of every file it lists.
// Files with identical drops — typically every file one delete cut through
// without dropping a page — share an entry, so the manifest, rewritten
// whole on every commit, grows by little more than a file number per file
// a delete touched.
type FileDrops struct {
	Files []uint64
	sstable.Drops
}

// SetDrops replaces the recorded drops with byFile's, grouping files whose
// drops are identical into one entry, in file-number order.
func (s *State) SetDrops(byFile map[uint64]sstable.Drops) {
	s.Drops = nil
	nums := make([]uint64, 0, len(byFile))
	for num := range byFile {
		nums = append(nums, num)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	group := make(map[string]int)
	for _, num := range nums {
		d := byFile[num]
		key := binary.AppendUvarint(nil, uint64(len(d.Pages)))
		key = append(key, d.Pages...)
		for _, iv := range d.Excluded {
			key = binary.AppendUvarint(binary.AppendUvarint(key, uint64(iv.Lo)), uint64(iv.Hi))
		}
		if i, ok := group[string(key)]; ok {
			s.Drops[i].Files = append(s.Drops[i].Files, num)
			continue
		}
		group[string(key)] = len(s.Drops)
		s.Drops = append(s.Drops, FileDrops{Files: []uint64{num}, Drops: d})
	}
}

// DropsByFile returns the recorded drops by file number.
func (s *State) DropsByFile() map[uint64]sstable.Drops {
	out := make(map[uint64]sstable.Drops)
	for _, fd := range s.Drops {
		for _, num := range fd.Files {
			out[num] = fd.Drops
		}
	}
	return out
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	c := &State{NextFileNum: s.NextFileNum, LastSeq: s.LastSeq}
	c.Levels = make([][][]uint64, len(s.Levels))
	for l, runs := range s.Levels {
		c.Levels[l] = make([][]uint64, len(runs))
		for r, files := range runs {
			c.Levels[l][r] = append([]uint64(nil), files...)
		}
	}
	if len(s.Remote) > 0 {
		c.Remote = append([]uint64(nil), s.Remote...)
	}
	for _, fd := range s.Drops {
		// Drops values are immutable once recorded; the file lists are what
		// a clone must not share.
		fd.Files = append([]uint64(nil), fd.Files...)
		c.Drops = append(c.Drops, fd)
	}
	return c
}

// RemoteSet returns the remote tier membership as a set.
func (s *State) RemoteSet() map[uint64]bool {
	if len(s.Remote) == 0 {
		return nil
	}
	set := make(map[uint64]bool, len(s.Remote))
	for _, f := range s.Remote {
		set[f] = true
	}
	return set
}

// FileCount returns the total number of files across all levels.
func (s *State) FileCount() int {
	n := 0
	for _, runs := range s.Levels {
		for _, files := range runs {
			n += len(files)
		}
	}
	return n
}

// Validate checks structural sanity: no duplicate file numbers, no file
// number at or above NextFileNum, and every remote-tier and drops entry
// naming a file that actually exists in some level.
func (s *State) Validate() error {
	seen := make(map[uint64]bool)
	for l, runs := range s.Levels {
		for r, files := range runs {
			for _, f := range files {
				if seen[f] {
					return fmt.Errorf("manifest: file %d appears twice", f)
				}
				if f >= s.NextFileNum {
					return fmt.Errorf("manifest: file %d (level %d run %d) >= NextFileNum %d",
						f, l+1, r, s.NextFileNum)
				}
				seen[f] = true
			}
		}
	}
	remote := make(map[uint64]bool, len(s.Remote))
	for _, f := range s.Remote {
		if !seen[f] {
			return fmt.Errorf("manifest: remote-tier file %d is not in any level", f)
		}
		if remote[f] {
			return fmt.Errorf("manifest: remote-tier file %d listed twice", f)
		}
		remote[f] = true
	}
	dropped := make(map[uint64]bool)
	for _, fd := range s.Drops {
		for _, f := range fd.Files {
			if !seen[f] {
				return fmt.Errorf("manifest: drops recorded for file %d, which is not in any level", f)
			}
			if dropped[f] {
				return fmt.Errorf("manifest: drops recorded twice for file %d", f)
			}
			dropped[f] = true
		}
	}
	return nil
}

// Store reads and writes the manifest file.
type Store struct {
	fs   vfs.FS
	name string
}

// NewStore manages the manifest under the given file name.
func NewStore(fs vfs.FS, name string) *Store {
	return &Store{fs: fs, name: name}
}

// Commit atomically replaces the manifest with st.
func (st *Store) Commit(s *State) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := vfs.WriteJSON(st.fs, st.name, s); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	return nil
}

// Load reads the manifest. The boolean reports whether a manifest existed.
func (st *Store) Load() (*State, bool, error) {
	var s State
	err := vfs.ReadJSON(st.fs, st.name, &s)
	if errors.Is(err, vfs.ErrNotExist) {
		return &State{NextFileNum: 1}, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("manifest: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, false, err
	}
	return &s, true, nil
}
