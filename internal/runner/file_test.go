package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a new file is created 0644, an existing file keeps
// its mode, and a write that fails — here the rename, because the target
// is a directory — leaves the target as it was and no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	for _, c := range []struct {
		name     string
		existing os.FileMode // 0: no file before the write
		dir      bool        // the target is a directory, so the rename fails
		wantMode os.FileMode
		wantErr  bool
	}{
		{name: "new file", wantMode: 0o644},
		{name: "existing 0600 file", existing: 0o600, wantMode: 0o600},
		{name: "existing 0640 file", existing: 0o640, wantMode: 0o640},
		{name: "failed write", dir: true, wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			switch {
			case c.dir:
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			case c.existing != 0:
				if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
					t.Fatal(err)
				}
				if err := os.Chmod(path, c.existing); err != nil {
					t.Fatal(err)
				}
			}
			data := []byte(`{"new":true}`)
			err := WriteFileAtomic(path, data)
			if (err != nil) != c.wantErr {
				t.Fatalf("WriteFileAtomic error = %v, want error %v", err, c.wantErr)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "out.json" {
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Errorf("directory holds %q, want only out.json", names)
			}
			if c.wantErr {
				return
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Errorf("content = %s, want %s", got, data)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Mode().Perm() != c.wantMode {
				t.Errorf("mode = %o, want %o", fi.Mode().Perm(), c.wantMode)
			}
		})
	}
}
