package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var spillKey = strings.Repeat("00ff", 16)

// lookupSpill starts a cache over a spill directory holding file under
// spillKey and looks the key up, as a restarted daemon would.
func lookupSpill(t *testing.T, file []byte) (res []byte, ok bool, c *Cache, path string) {
	t.Helper()
	dir := t.TempDir()
	path = filepath.Join(dir, spillKey+".json")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	res, ok = c.Get(spillKey)
	return res, ok, c, path
}

// TestSpillFileVerified: a spill file is served only when its bytes match
// the length and digest it was written under; anything else on disk is a
// miss that removes the file, so the result is recomputed and respilled.
func TestSpillFileVerified(t *testing.T) {
	result := []byte(`{"cells":[{"delivered":720,"missing":0}]}`)
	dir := t.TempDir()
	w, err := NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put(spillKey, result)
	intact, err := os.ReadFile(filepath.Join(dir, spillKey+".json"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(intact)
	flipped[len(flipped)-3] ^= 0x04

	cases := []struct {
		name string
		file []byte
		hit  bool
	}{
		{"intact", intact, true},
		{"truncated", intact[:len(intact)-7], false},
		{"bit-flipped", flipped, false},
		{"unframed", result, false}, // what a pre-PR-23 daemon wrote
		{"wrong length", []byte(fmt.Sprintf("rxld-spill %d %x\n%s", len(result)+1, sha256.Sum256(result), result)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok, c, path := lookupSpill(t, tc.file)
			st := c.Stats()
			if tc.hit {
				if !ok || !bytes.Equal(got, result) || st.DiskHits != 1 {
					t.Fatalf("intact spill not served: ok=%v got=%q stats=%+v", ok, got, st)
				}
				return
			}
			if ok || st.Misses != 1 || st.DiskHits != 0 {
				t.Fatalf("served %q from a bad spill file: ok=%v stats=%+v", got, ok, st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("bad spill file left in place: %v", err)
			}
			c.Put(spillKey, result) // the recompute
			if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, intact) {
				t.Fatalf("respill = %q, %v; want the intact frame", file, err)
			}
		})
	}
}

// FuzzSpillFile holds the disk boundary of the cache: whatever bytes sit
// under a key's spill path, lookup never panics and never returns bytes
// other than the ones the file's own header vouches for; a file that does
// not verify is a counted miss and is removed.
func FuzzSpillFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		got, ok, c, path := lookupSpill(t, file)
		st := c.Stats()
		if ok {
			if string(file) != spillHeader(got)+string(got) || st.DiskHits != 1 {
				t.Fatalf("served %q from file %q (stats %+v)", got, file, st)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) || st.Misses != 1 {
			t.Fatalf("rejected file %q: stat err %v, stats %+v", file, err, st)
		}
	})
}

// TestCacheFetchRejectsPathKeys: GET /v1/cache/{key} unescapes %2F, so a
// 64-byte key can climb out of the spill directory. Such a key is a 400
// that touches no file — the planted file outside the spill directory,
// which does not verify as a spill entry, must survive the request.
func TestCacheFetchRejectsPathKeys(t *testing.T) {
	root := t.TempDir()
	victim := filepath.Join(root, "victim", strings.Repeat("a", 54)+".json")
	if err := os.MkdirAll(filepath.Dir(victim), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, []byte("not a spill file"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newTestServer(t, Config{SpillDir: filepath.Join(root, "spill")}))
	defer ts.Close()

	key := "..%2Fvictim%2F" + strings.Repeat("a", 54)
	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("path key: status %d, want 400", resp.StatusCode)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("file outside the spill directory: %v", err)
	}
}
