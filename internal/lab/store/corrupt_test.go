package store

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corruption records one planted fault: which file, and how it was
// damaged. The slice corruptTree returns is the manifest a scrub is
// audited against — quarantining 100% of it is the acceptance bar.
type corruption struct {
	Path string // absolute path of the damaged file
	Kind string // "bitflip" or "truncate"
}

// corruptTree walks root and deterministically damages about frac of its
// regular files: half by flipping one payload bit, half by truncating the
// file mid-way. Selection, kind, and position are pure functions of
// (seed, path relative to root), so the same seed plants the same damage
// on the same tree. If frac > 0 and the tree has any eligible file, at
// least one is corrupted (the one with the lowest selection roll), so a
// scrub test can never vacuously pass. Empty files, temp files (put-*,
// .trace-*), and anything already under a quarantine/ directory are
// skipped.
func corruptTree(root string, seed uint64, frac float64) ([]corruption, error) {
	if frac <= 0 {
		return nil, nil
	}
	type candidate struct {
		path string
		roll float64
		r    *rolls
	}
	var cands []candidate
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "quarantine" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, "put-") || strings.HasPrefix(name, ".trace-") {
			return nil
		}
		info, err := d.Info()
		if err != nil || info.Size() == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		r := newRolls(seed, filepath.ToSlash(rel))
		cands = append(cands, candidate{path: path, roll: float64(r.next()>>11) / float64(1<<53), r: r})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corrupt %s: %w", root, err)
	}
	if len(cands) == 0 {
		return nil, nil
	}
	// Guarantee at least one victim: the lowest roll is always in.
	min := 0
	for i, c := range cands {
		if c.roll < cands[min].roll {
			min = i
		}
	}
	var manifest []corruption
	for i, c := range cands {
		if c.roll >= frac && i != min {
			continue
		}
		kind, err := corruptFile(c.path, c.r)
		if err != nil {
			return manifest, fmt.Errorf("corrupt %s: %w", c.path, err)
		}
		manifest = append(manifest, corruption{Path: c.path, Kind: kind})
	}
	return manifest, nil
}

// corruptFile damages one file in place, choosing the mutation from the
// file's own roll stream.
func corruptFile(path string, r *rolls) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if r.next()%2 == 0 || len(data) < 2 {
		// Flip one bit somewhere in the payload.
		pos := int(r.next() % uint64(len(data)))
		bit := byte(1) << (r.next() % 8)
		data[pos] ^= bit
		// Preserve the original mode; these are plain 0o644 artifacts.
		return "bitflip", os.WriteFile(path, data, 0o644)
	}
	// Truncate somewhere strictly inside the file (never to full length).
	keep := 1 + int(r.next()%uint64(len(data)-1))
	return "truncate", os.Truncate(path, int64(keep))
}

// rolls is a deterministic per-file decision stream: splitmix64 seeded by
// (seed, scope).
type rolls struct{ state uint64 }

func newRolls(seed uint64, scope string) *rolls {
	h := seed
	for _, b := range []byte(scope) {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return &rolls{state: h}
}

// next advances the splitmix64 stream.
func (r *rolls) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestCorruptTreeManifest: the planter is deterministic per seed, uses
// both kinds of damage, really changes every file it lists, skips the
// files it must, and always plants at least one fault.
func TestCorruptTreeManifest(t *testing.T) {
	s, _, _ := buildScrubTree(t)
	pristine := map[string][]byte{}
	filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			pristine[path], _ = os.ReadFile(path)
		}
		return nil
	})
	planted, err := corruptTree(s.Dir(), 42, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(planted) == 0 {
		t.Fatal("nothing corrupted at frac 0.3")
	}

	// The same seed plants the same damage on an identical tree.
	twin, _, _ := buildScrubTree(t)
	twinPlanted, err := corruptTree(twin.Dir(), 42, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(twinPlanted) != len(planted) {
		t.Fatalf("same seed corrupted %d vs %d files", len(planted), len(twinPlanted))
	}
	kinds := map[string]int{}
	for i, c := range planted {
		rel, _ := filepath.Rel(s.Dir(), c.Path)
		twinRel, _ := filepath.Rel(twin.Dir(), twinPlanted[i].Path)
		if rel != twinRel || c.Kind != twinPlanted[i].Kind {
			t.Fatalf("plantings diverge at %d: %+v vs %+v", i, c, twinPlanted[i])
		}
		kinds[c.Kind]++
		// The damage is real: content changed on disk.
		if after, err := os.ReadFile(c.Path); err != nil || bytes.Equal(after, pristine[c.Path]) {
			t.Fatalf("%s listed as planted but unchanged (err %v)", c.Path, err)
		}
	}
	if kinds["bitflip"] == 0 || kinds["truncate"] == 0 {
		t.Fatalf("only one corruption kind planted: %v", kinds)
	}

	// At frac 1 every entry and spill is damaged, and none of the files
	// the planter must skip.
	if all, err := corruptTree(twin.Dir(), 7, 1); err != nil || len(all) != 46 {
		t.Fatalf("frac 1 planted %d files (err %v), want the 46 entries and spills", len(all), err)
	}

	// Minimum-one guarantee at a vanishing fraction.
	fresh, _, _ := buildScrubTree(t)
	one, err := corruptTree(fresh.Dir(), 5, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("frac 1e-12 corrupted %d files, want exactly the guaranteed one", len(one))
	}
}
