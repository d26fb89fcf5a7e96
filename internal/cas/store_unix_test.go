//go:build unix

package cas

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// Objects and the link log must land world-readable (0644) whatever the
// process umask: os.CreateTemp creates 0600, and without the explicit Chmod
// a store written under one uid is unreadable to the tooling that serves it.
// The layout holds one file per object plus links.log, and nothing per link.
func TestDiskStoreObjectPermissions(t *testing.T) {
	defer syscall.Umask(syscall.Umask(0o077))
	dir := t.TempDir()
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, err := st.Put([]byte("readable"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"name", "other"} {
		if err := st.Link(KeyOf([]byte(name)), k); err != nil {
			t.Fatal(err)
		}
	}
	var files []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		if got := fi.Mode().Perm(); got != 0o644 {
			t.Errorf("%s mode = %04o, want 0644", path, got)
		}
		rel, err := filepath.Rel(dir, path)
		files = append(files, rel)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{linkLog, filepath.Join("objects", string(k[:2]), string(k[2:]))}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("store files = %v, want %v", files, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "links")); !os.IsNotExist(err) {
		t.Errorf("links/ directory present: %v", err)
	}
}
