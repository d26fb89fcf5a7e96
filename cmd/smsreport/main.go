// Command smsreport regenerates the tables and figures of "A Systematic
// Mapping Study of Italian Research on Workflows" (SC-W 2023) from the
// embedded study dataset.
//
// Usage:
//
//	smsreport                         # full report to stdout
//	smsreport -table 1 -format md    # one table as markdown
//	smsreport -fig 2 -format svg     # one figure as SVG
//	smsreport -out artifacts/         # write every artifact in every format
//	smsreport -catalog file.json      # run over an alternative catalog
//	smsreport -workers 4              # bound the render worker pool
//	smsreport -cache .smscache        # memoize the full report (warm = no re-render)
//	smsreport -cpuprofile cpu.pprof   # profile the render (go tool pprof cpu.pprof)
//	smsreport -memprofile mem.pprof   # allocation profile after the render
//	smsreport -run corpus/classify    # sharded classification of the synthetic corpus
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smsreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smsreport", flag.ContinueOnError)
	var (
		tableN      = fs.Int("table", 0, "render only table N (1 or 2)")
		figN        = fs.Int("fig", 0, "render only figure N (1-4)")
		format      = fs.String("format", "text", "output format: text, md, csv, svg")
		outDir      = fs.String("out", "", "write all artifacts into this directory")
		catalogPath = fs.String("catalog", "", "load catalog from JSON file instead of the embedded dataset")
		workers     = fs.Int("workers", runtime.GOMAXPROCS(0), "render worker pool size (1 = sequential; output is identical for any value)")
		metrics     = fs.Bool("metrics", false, "append Prometheus-text render metrics after the output")
		cacheDir    = fs.String("cache", "", "content-addressed artifact cache directory for the full report: a warm rebuild over an unchanged study re-renders nothing (internal/cas)")
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the render to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof allocation profile after the render to this file")
		listExp     = fs.Bool("list", false, "list every registered experiment and exit")
		runExp      = fs.String("run", "", "run one registered experiment by name (\"all\" = whole registry)")
		jsonOut     = fs.Bool("json", false, "with -run: emit the experiment Result as JSON")
		seed        = fs.Int64("seed", 1, "with -run: root experiment seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smsreport: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained allocations
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "smsreport: memprofile:", err)
			}
		}()
	}
	var reg *telemetry.Registry
	if *metrics {
		// A Sim clock keeps the exposition wall-clock free: the metrics
		// depend only on the rendered artifacts, so identical invocations
		// give byte-identical output regardless of machine or worker count.
		reg = telemetry.NewWithClock(clock.NewSim(1))
	}

	cat := catalog.Default()
	if *catalogPath != "" {
		f, err := os.Open(*catalogPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cat, err = catalog.ReadJSON(f)
		if err != nil {
			return err
		}
	}
	study, err := core.NewStudy(cat)
	if err != nil {
		return err
	}

	cliOpts := experiments.CLIOptions{
		List: *listExp, Run: *runExp, JSON: *jsonOut,
		Seed: *seed, Workers: *workers, Cache: *cacheDir,
	}
	if cliOpts.Active() {
		reg, err := experiments.New(study)
		if err != nil {
			return err
		}
		return experiments.RunCLI(reg, cliOpts, stdout)
	}

	if *outDir != "" {
		if err := writeAll(study, *outDir, *workers, reg); err != nil {
			return err
		}
		return printMetrics(stdout, reg)
	}
	if *tableN != 0 {
		out, err := renderTable(study, *tableN, *format)
		if err != nil {
			return err
		}
		observeRender(reg, out)
		fmt.Fprint(stdout, out)
		return printMetrics(stdout, reg)
	}
	if *figN != 0 {
		out, err := renderFig(study, *figN, *format)
		if err != nil {
			return err
		}
		observeRender(reg, out)
		fmt.Fprint(stdout, out)
		return printMetrics(stdout, reg)
	}
	env := &exp.Env{Par: []par.Option{par.Workers(*workers)}}
	if *cacheDir != "" {
		if env.Store, err = cas.NewDiskStore(*cacheDir); err != nil {
			return err
		}
		// The sim clock keeps the section spans byte-identical across
		// invocations; the report bytes equal the uncached render either
		// way. Section reuse reaches -metrics as report.shards.hit/exec.
		env.Clock, env.Metrics = clock.NewSim(1), reg
	}
	full, _, err := report.FullEnv(study, env)
	if err != nil {
		return err
	}
	observeRender(reg, full)
	fmt.Fprint(stdout, full)
	return printMetrics(stdout, reg)
}

// observeRender records one rendered artifact into the metrics registry.
func observeRender(reg *telemetry.Registry, out string) {
	if reg == nil {
		return
	}
	reg.Inc("smsreport.renders", 1)
	reg.Inc("smsreport.bytes_total", int64(len(out)))
	reg.Observe("smsreport.artifact_bytes", float64(len(out)))
}

// printMetrics appends the Prometheus exposition when -metrics was given.
func printMetrics(stdout io.Writer, reg *telemetry.Registry) error {
	if reg == nil {
		return nil
	}
	_, err := fmt.Fprintf(stdout, "\n# metrics (Prometheus text exposition)\n%s", reg.PromText())
	return err
}

func renderTable(s *core.Study, n int, format string) (string, error) {
	var tb = report.Table1(s)
	switch n {
	case 1:
	case 2:
		tb = report.Table2(s)
	default:
		return "", fmt.Errorf("unknown table %d (the paper has tables 1 and 2)", n)
	}
	switch format {
	case "text":
		return tb.ASCII()
	case "md":
		return tb.Markdown()
	case "csv":
		return tb.CSV()
	case "svg":
		if n != 2 {
			return "", fmt.Errorf("only table 2 has an SVG (matrix) rendering")
		}
		return report.Table2Matrix(s).SVG()
	default:
		return "", fmt.Errorf("tables support formats text, md, csv (table 2 also svg); got %q", format)
	}
}

func renderFig(s *core.Study, n int, format string) (string, error) {
	switch n {
	case 1:
		if format != "text" {
			return "", fmt.Errorf("figure 1 is structural; only text format is supported")
		}
		return report.Fig1(s), nil
	case 2, 4:
		pie := report.Fig2(s)
		if n == 4 {
			var err error
			pie, err = report.Fig4(s)
			if err != nil {
				return "", err
			}
		}
		switch format {
		case "text":
			return pie.ASCII(40)
		case "svg":
			return pie.SVG(320)
		case "csv":
			return pie.CSV()
		}
		return "", fmt.Errorf("pie figures support formats text, svg, csv; got %q", format)
	case 3, 5:
		bar := report.Fig3(s)
		if n == 5 { // extension figure E1: tools per publication year
			bar = report.FigE1(s)
		}
		switch format {
		case "text":
			return bar.ASCII()
		case "svg":
			return bar.SVG(480, 320)
		case "csv":
			return bar.CSV()
		}
		return "", fmt.Errorf("bar figures support formats text, svg, csv; got %q", format)
	default:
		return "", fmt.Errorf("unknown figure %d (the paper has figures 1-4; 5 = extension E1)", n)
	}
}

// writeAll materializes every artifact in every applicable format under
// dir. Artifacts render concurrently on the worker pool and are written in
// the fixed artifact order, so repeated runs produce identical files.
func writeAll(s *core.Study, dir string, workers int, reg *telemetry.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type artifact struct {
		name   string
		render func() (string, error)
	}
	var artifacts []artifact
	for _, spec := range []struct {
		n       int
		formats []string
		ext     map[string]string
	}{
		{1, []string{"text", "md", "csv"}, map[string]string{"text": "txt", "md": "md", "csv": "csv"}},
		{2, []string{"text", "md", "csv"}, map[string]string{"text": "txt", "md": "md", "csv": "csv"}},
	} {
		spec := spec
		for _, f := range spec.formats {
			f := f
			artifacts = append(artifacts, artifact{
				name:   fmt.Sprintf("table%d.%s", spec.n, spec.ext[f]),
				render: func() (string, error) { return renderTable(s, spec.n, f) },
			})
		}
	}
	artifacts = append(artifacts, artifact{"fig1.txt", func() (string, error) { return renderFig(s, 1, "text") }})
	for _, n := range []int{2, 3, 4, 5} {
		n := n
		for _, f := range []string{"text", "svg", "csv"} {
			f := f
			ext := map[string]string{"text": "txt", "svg": "svg", "csv": "csv"}[f]
			artifacts = append(artifacts, artifact{
				name:   fmt.Sprintf("fig%d.%s", n, ext),
				render: func() (string, error) { return renderFig(s, n, f) },
			})
		}
	}
	artifacts = append(artifacts, artifact{"report.txt", func() (string, error) { return report.Full(s, par.Workers(1)) }})

	rendered, err := par.MapReduceN(len(artifacts), func(_, lo, hi int) ([]string, error) {
		outs := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out, err := artifacts[i].render()
			if err != nil {
				return nil, fmt.Errorf("rendering %s: %w", artifacts[i].name, err)
			}
			outs = append(outs, out)
		}
		return outs, nil
	}, func(a, b []string) []string { return append(a, b...) }, par.Workers(workers), par.Grain(1))
	if err != nil {
		return err
	}
	for i, a := range artifacts {
		// Observed in fixed artifact order after the parallel gather, so the
		// registry contents never depend on the worker count.
		observeRender(reg, rendered[i])
		if err := os.WriteFile(filepath.Join(dir, a.name), []byte(rendered[i]), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d artifacts to %s\n", len(artifacts), dir)
	return nil
}
