// Package ppc implements the Permuting + Partition + Compress paradigm of
// application 3.1 (compression of petascale collections of textual and
// source-code files, after Ferragina & Manzini's PPC): permute the files so
// similar ones sit close together, partition the permuted sequence into
// blocks, and compress each block with a window at least as large as the
// block. The package parallelizes the partition-compression phase with the
// stream substrate (FastFlow/WindFlow-style farm), which is exactly the
// integration the application proposes.
package ppc

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/stream"
)

// File is one archive member.
type File struct {
	Name string
	Data []byte
}

// Permutation orders files so that similar files become neighbours.
type Permutation interface {
	Name() string
	// Apply returns a new ordering of files (the input is not modified).
	Apply(files []File) []File
}

// Identity keeps the input order — the "no permutation" baseline.
type Identity struct{}

// Name implements Permutation.
func (Identity) Name() string { return "identity" }

// Apply implements Permutation.
func (Identity) Apply(files []File) []File { return append([]File(nil), files...) }

// ByName sorts by full file name — the PPC paper's cheap filename-based
// similarity proxy (files from the same project/directory cluster).
type ByName struct{}

// Name implements Permutation.
func (ByName) Name() string { return "by-name" }

// Apply implements Permutation.
func (ByName) Apply(files []File) []File {
	out := append([]File(nil), files...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByExtension sorts by extension first, then name, grouping same-language
// sources together.
type ByExtension struct{}

// Name implements Permutation.
func (ByExtension) Name() string { return "by-extension" }

// Apply implements Permutation.
func (ByExtension) Apply(files []File) []File {
	out := append([]File(nil), files...)
	sort.SliceStable(out, func(i, j int) bool {
		ei, ej := path.Ext(out[i].Name), path.Ext(out[j].Name)
		if ei != ej {
			return ei < ej
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByContent sorts by a content sketch: the k most frequent byte trigrams of
// each file, serialized — files sharing vocabulary sort near each other.
type ByContent struct {
	// SketchLen is the number of top trigrams in the sketch (default 8).
	SketchLen int
}

// Name implements Permutation.
func (ByContent) Name() string { return "by-content" }

// Apply implements Permutation.
func (p ByContent) Apply(files []File) []File {
	k := p.SketchLen
	if k <= 0 {
		k = 8
	}
	type sketched struct {
		f      File
		sketch string
	}
	out := make([]sketched, len(files))
	for i, f := range files {
		out[i] = sketched{f, contentSketch(f.Data, k)}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].sketch != out[j].sketch {
			return out[i].sketch < out[j].sketch
		}
		return out[i].f.Name < out[j].f.Name
	})
	res := make([]File, len(files))
	for i, s := range out {
		res[i] = s.f
	}
	return res
}

// contentSketch returns the k most frequent trigrams joined in frequency
// order (ties lexicographic), a cheap locality-sensitive signature.
func contentSketch(data []byte, k int) string {
	if len(data) < 3 {
		return string(data)
	}
	counts := map[string]int{}
	for i := 0; i+3 <= len(data); i++ {
		counts[string(data[i:i+3])]++
	}
	type tc struct {
		t string
		c int
	}
	all := make([]tc, 0, len(counts))
	for t, c := range counts {
		all = append(all, tc{t, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].t < all[j].t
	})
	if len(all) > k {
		all = all[:k]
	}
	var b strings.Builder
	for _, e := range all {
		b.WriteString(e.t)
	}
	return b.String()
}

// Block is one compressed partition.
type Block struct {
	Index      int
	Files      []string // member names, in order
	RawSize    int
	Compressed []byte
}

// Archive is the result of a PPC run.
type Archive struct {
	Permutation    string
	Blocks         []Block
	RawSize        int
	CompressedSize int
}

// Ratio returns compressed/raw (lower is better).
func (a *Archive) Ratio() float64 {
	if a.RawSize == 0 {
		return 1
	}
	return float64(a.CompressedSize) / float64(a.RawSize)
}

// Options configure a compression run.
type Options struct {
	// BlockSize is the partition target in bytes (files are never split;
	// a block closes once it reaches the target).
	BlockSize int
	// Level is the flate level (flate.DefaultCompression if 0).
	Level int
	// Workers parallelizes block compression (1 = sequential).
	Workers int
}

func (o *Options) defaults() error {
	if o.BlockSize <= 0 {
		return fmt.Errorf("ppc: non-positive block size %d", o.BlockSize)
	}
	if o.Level == 0 {
		o.Level = flate.DefaultCompression
	}
	if o.Level < flate.HuffmanOnly || o.Level > flate.BestCompression {
		return fmt.Errorf("ppc: invalid flate level %d", o.Level)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return nil
}

// partition groups permuted files into blocks of about BlockSize bytes.
func partition(files []File, blockSize int) [][]File {
	var blocks [][]File
	var cur []File
	size := 0
	for _, f := range files {
		cur = append(cur, f)
		size += len(f.Data)
		if size >= blockSize {
			blocks = append(blocks, cur)
			cur, size = nil, 0
		}
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks
}

// serialize concatenates a block's files with a length-prefixed framing so
// decompression can recover file boundaries.
func serialize(files []File) []byte {
	var buf bytes.Buffer
	for _, f := range files {
		fmt.Fprintf(&buf, "%d %d\n", len(f.Name), len(f.Data))
		buf.WriteString(f.Name)
		buf.Write(f.Data)
	}
	return buf.Bytes()
}

// deserialize reverses serialize.
func deserialize(data []byte) ([]File, error) {
	var out []File
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		var nameLen, dataLen int
		if _, err := fmt.Fscanf(r, "%d %d\n", &nameLen, &dataLen); err != nil {
			return nil, fmt.Errorf("ppc: corrupt block header: %w", err)
		}
		if nameLen < 0 || dataLen < 0 || nameLen+dataLen > r.Len() {
			return nil, errors.New("ppc: corrupt block lengths")
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, err
		}
		data := make([]byte, dataLen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		out = append(out, File{Name: string(name), Data: data})
	}
	return out, nil
}

// writers recycles one flate compressor per level (HuffmanOnly through
// BestCompression): a compressor is about 1 MB of state, which Reset
// clears without reallocating, and a reset writer emits the same bytes as
// a new one.
var writers = func() (pools [flate.BestCompression - flate.HuffmanOnly + 1]*par.Pool[*flate.Writer]) {
	for i := range pools {
		level := flate.HuffmanOnly + i
		pools[i] = par.NewPool(func() *flate.Writer {
			w, err := flate.NewWriter(io.Discard, level)
			if err != nil {
				panic(err) // every level in the range is valid
			}
			return w
		})
	}
	return pools
}()

// compressBlock deflates raw at a level Options.defaults validated.
func compressBlock(raw []byte, level int) ([]byte, error) {
	var buf bytes.Buffer
	pool := writers[level-flate.HuffmanOnly]
	w := pool.Get()
	defer pool.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decompressBlock(comp []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(comp))
	defer r.Close()
	return io.ReadAll(r)
}

// Compress runs the full PPC pipeline: permute, partition, and compress
// blocks in parallel using a stream farm.
func Compress(ctx context.Context, files []File, perm Permutation, opts Options) (*Archive, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, errors.New("ppc: no files")
	}
	permuted := perm.Apply(files)
	blocks := partition(permuted, opts.BlockSize)

	type job struct {
		idx   int
		files []File
	}
	jobs := make([]job, len(blocks))
	for i, b := range blocks {
		jobs[i] = job{i, b}
	}
	src := stream.FromSlice(ctx, jobs)
	results := stream.Map(src, func(j job) Block {
		raw := serialize(j.files)
		comp, err := compressBlock(raw, opts.Level)
		if err != nil {
			// flate only errors on invalid levels, validated above; keep
			// the block uncompressed as a defensive fallback.
			comp = raw
		}
		names := make([]string, len(j.files))
		for i, f := range j.files {
			names[i] = f.Name
		}
		return Block{Index: j.idx, Files: names, RawSize: len(raw), Compressed: comp}
	}, stream.Workers(opts.Workers), stream.Ordered())

	out, err := results.Collect()
	if err != nil {
		return nil, err
	}
	a := &Archive{Permutation: perm.Name(), Blocks: out}
	for _, b := range out {
		a.RawSize += b.RawSize
		a.CompressedSize += len(b.Compressed)
	}
	return a, nil
}

// Decompress restores all files from the archive, in archive order.
func Decompress(a *Archive) ([]File, error) {
	var out []File
	for _, b := range a.Blocks {
		raw, err := decompressBlock(b.Compressed)
		if err != nil {
			return nil, fmt.Errorf("ppc: block %d: %w", b.Index, err)
		}
		files, err := deserialize(raw)
		if err != nil {
			return nil, fmt.Errorf("ppc: block %d: %w", b.Index, err)
		}
		out = append(out, files...)
	}
	return out, nil
}
