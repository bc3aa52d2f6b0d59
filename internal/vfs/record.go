package vfs

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON durably replaces the record name with v encoded as JSON: it
// creates name+".tmp", writes, syncs and closes it, then renames it over
// name. The rename is the commit point, so a crash leaves the old record or
// the new one, never a torn file. The error names the step that failed.
func WriteJSON(fs FS, name string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", name, err)
	}
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, name); err != nil {
		return fmt.Errorf("install %s: %w", name, err)
	}
	return nil
}

// ReadJSON reads the whole record name and decodes it into v. When the
// record is absent the error wraps ErrNotExist.
func ReadJSON(fs FS, name string, v any) error {
	f, err := fs.Open(name)
	if err != nil {
		return fmt.Errorf("open %s: %w", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return fmt.Errorf("size of %s: %w", name, err)
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return fmt.Errorf("read %s: %w", name, err)
		}
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decode %s: %w", name, err)
	}
	return nil
}
