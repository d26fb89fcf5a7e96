// Compression reproduces application 3.1: Permute+Partition+Compress over a
// Software-Heritage-like synthetic corpus, comparing permutation strategies
// (the compression-ratio lever) and parallel block compression (the
// FastFlow/WindFlow scalability lever).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"repro/internal/rng"
	"runtime"
	"time"

	"repro/internal/clock"

	"repro/internal/ppc"
)

func main() {
	r := rng.New(42)
	corpus := ppc.SyntheticCorpus(60, 12, 4000, r)
	total := 0
	for _, f := range corpus {
		total += len(f.Data)
	}
	fmt.Printf("Corpus: %d files, %.1f MB (60 projects x 12 near-duplicate variants)\n\n",
		len(corpus), float64(total)/1e6)

	ctx := context.Background()
	opts := ppc.Options{BlockSize: 64 << 10, Workers: runtime.NumCPU()}

	// The permutation ablation: similar files adjacent → better ratio.
	perms := []ppc.Permutation{ppc.Identity{}, ppc.ByExtension{}, ppc.ByName{}, ppc.ByContent{}}
	fmt.Printf("%-14s %12s %10s\n", "permutation", "compressed", "ratio")
	for _, p := range perms {
		a, err := ppc.Compress(ctx, corpus, p, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %11.1fkB %9.4f\n", p.Name(), float64(a.CompressedSize)/1e3, a.Ratio())
	}

	// The parallelism ablation: farm workers vs wall time, measured through
	// the clock boundary (clock.Real is the sanctioned wall-clock source).
	// Wall times and the CPU count vary from run to run and host to host,
	// so this table goes to stderr and stdout stays comparable with cmp.
	var clk clock.Real
	fmt.Fprintf(os.Stderr, "\n%-9s %12s\n", "workers", "wall time")
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		start := clk.Now()
		if _, err := ppc.Compress(ctx, corpus, ppc.ByName{}, ppc.Options{BlockSize: 64 << 10, Workers: w}); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%-9d %12s\n", w, clk.Since(start).Round(time.Millisecond))
	}

	// Round-trip integrity.
	a, err := ppc.Compress(ctx, corpus, ppc.ByName{}, opts)
	if err != nil {
		log.Fatal(err)
	}
	files, err := ppc.Decompress(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nround-trip: %d files restored across %d blocks ✓\n", len(files), len(a.Blocks))
}
