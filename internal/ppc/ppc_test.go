package ppc

import (
	"bytes"
	"compress/flate"
	"context"
	"repro/internal/rng"
	"sort"
	"testing"
	"testing/quick"
)

func corpus(t *testing.T) []File {
	t.Helper()
	return SyntheticCorpus(10, 8, 2000, rng.New(42))
}

func TestRoundTripAllPermutations(t *testing.T) {
	files := corpus(t)
	for _, perm := range []Permutation{Identity{}, ByName{}, ByExtension{}, ByContent{}} {
		a, err := Compress(context.Background(), files, perm, Options{BlockSize: 16 << 10, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", perm.Name(), err)
		}
		got, err := Decompress(a)
		if err != nil {
			t.Fatalf("%s: %v", perm.Name(), err)
		}
		if len(got) != len(files) {
			t.Fatalf("%s: file count %d vs %d", perm.Name(), len(got), len(files))
		}
		// Same multiset of files (order depends on the permutation).
		index := map[string]string{}
		for _, f := range files {
			index[f.Name] = string(f.Data)
		}
		for _, f := range got {
			if index[f.Name] != string(f.Data) {
				t.Fatalf("%s: file %s corrupted", perm.Name(), f.Name)
			}
			delete(index, f.Name)
		}
		if len(index) != 0 {
			t.Fatalf("%s: %d files missing", perm.Name(), len(index))
		}
	}
}

// The PPC headline claim: similarity permutations compress better than
// arrival order.
func TestPermutationImprovesRatio(t *testing.T) {
	files := corpus(t)
	ratios := map[string]float64{}
	for _, p := range []Permutation{Identity{}, ByName{}, ByContent{}} {
		a, err := Compress(context.Background(), files, p, Options{BlockSize: 16 << 10, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		ratios[p.Name()] = a.Ratio()
	}
	if ratios["by-name"] >= ratios["identity"] {
		t.Errorf("by-name ratio %.4f not better than identity %.4f", ratios["by-name"], ratios["identity"])
	}
	if ratios["by-content"] >= ratios["identity"] {
		t.Errorf("by-content ratio %.4f not better than identity %.4f", ratios["by-content"], ratios["identity"])
	}
	for name, r := range ratios {
		if r <= 0 || r > 1.1 {
			t.Errorf("%s ratio %v out of sane range", name, r)
		}
	}
}

func TestParallelMatchesSequentialOutputSize(t *testing.T) {
	files := corpus(t)
	seq, err := Compress(context.Background(), files, ByName{}, Options{BlockSize: 16 << 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compress(context.Background(), files, ByName{}, Options{BlockSize: 16 << 10, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CompressedSize != par.CompressedSize || len(seq.Blocks) != len(par.Blocks) {
		t.Errorf("parallel compression diverged: %d/%d bytes, %d/%d blocks",
			seq.CompressedSize, par.CompressedSize, len(seq.Blocks), len(par.Blocks))
	}
	// Ordered farm: block indices in order.
	for i, b := range par.Blocks {
		if b.Index != i {
			t.Errorf("block %d has index %d", i, b.Index)
		}
	}
}

func TestPartitionRespectsBlockTarget(t *testing.T) {
	files := corpus(t)
	blocks := partition(files, 10_000)
	total := 0
	for i, b := range blocks {
		size := 0
		for _, f := range b {
			size += len(f.Data)
			total++
		}
		// Every block except the last reaches the target.
		if i < len(blocks)-1 && size < 10_000 {
			t.Errorf("block %d size %d below target", i, size)
		}
		if len(b) == 0 {
			t.Errorf("empty block %d", i)
		}
	}
	if total != len(files) {
		t.Errorf("partition lost files: %d of %d", total, len(files))
	}
}

func TestOptionsValidation(t *testing.T) {
	files := corpus(t)[:2]
	if _, err := Compress(context.Background(), files, Identity{}, Options{BlockSize: 0}); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := Compress(context.Background(), files, Identity{}, Options{BlockSize: 1024, Level: 42}); err == nil {
		t.Error("invalid level accepted")
	}
	if _, err := Compress(context.Background(), nil, Identity{}, Options{BlockSize: 1024}); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(names []string, blobs [][]byte) bool {
		n := len(names)
		if len(blobs) < n {
			n = len(blobs)
		}
		files := make([]File, 0, n)
		for i := 0; i < n; i++ {
			files = append(files, File{Name: names[i], Data: blobs[i]})
		}
		if len(files) == 0 {
			return true
		}
		got, err := deserialize(serialize(files))
		if err != nil {
			return false
		}
		if len(got) != len(files) {
			return false
		}
		for i := range files {
			if got[i].Name != files[i].Name || string(got[i].Data) != string(files[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeserializeRejectsCorruption(t *testing.T) {
	if _, err := deserialize([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := deserialize([]byte("5 999999\nhello")); err == nil {
		t.Error("lying lengths accepted")
	}
}

func TestContentSketchGroupsSimilarFiles(t *testing.T) {
	a1 := File{Name: "z1", Data: []byte("the quick brown fox jumps over the lazy dog the quick brown fox")}
	a2 := File{Name: "a2", Data: []byte("the quick brown fox jumps over the lazy dog the quick brown cat")}
	b := File{Name: "m3", Data: []byte("zzzz yyyy xxxx wwww vvvv uuuu tttt ssss zzzz yyyy xxxx wwww vvv")}
	out := (ByContent{}).Apply([]File{a1, b, a2})
	// The two near-duplicates must be adjacent after permutation.
	pos := map[string]int{}
	for i, f := range out {
		pos[f.Name] = i
	}
	if d := pos["z1"] - pos["a2"]; d != 1 && d != -1 {
		t.Errorf("similar files not adjacent: %v", pos)
	}
}

func TestSyntheticCorpusDeterministic(t *testing.T) {
	a := SyntheticCorpus(3, 4, 500, rng.New(7))
	b := SyntheticCorpus(3, 4, 500, rng.New(7))
	if len(a) != len(b) || len(a) != 12 {
		t.Fatalf("corpus sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || string(a[i].Data) != string(b[i].Data) {
			t.Fatal("corpus not deterministic")
		}
	}
	// Names cover all families.
	names := make([]string, len(a))
	for i, f := range a {
		names[i] = f.Name
	}
	sort.Strings(names)
	if names[0] == names[1] {
		t.Error("duplicate names")
	}
}

// A recycled compressor emits the same bytes as a new one, at every level
// and on every reuse — the archive bytes do not depend on pool state.
func TestPooledWriterMatchesFresh(t *testing.T) {
	raw := serialize(corpus(t)[:12])
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		var want bytes.Buffer
		w, err := flate.NewWriter(&want, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			got, err := compressBlock(raw[:len(raw)-round], level)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 && !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("level %d: pooled writer output differs from a fresh writer", level)
			}
			back, err := decompressBlock(got)
			if err != nil || !bytes.Equal(back, raw[:len(raw)-round]) {
				t.Fatalf("level %d round %d: round trip failed (%v)", level, round, err)
			}
		}
		again, err := compressBlock(raw, level)
		if err != nil || !bytes.Equal(again, want.Bytes()) {
			t.Fatalf("level %d: reused writer output differs (%v)", level, err)
		}
	}
}
