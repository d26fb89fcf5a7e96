package report

import (
	"testing"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/par"
)

func newMemo(t testing.TB) *cas.Memo {
	t.Helper()
	return &cas.Memo{Store: cas.NewMemStore(), Clock: clock.NewSim(1)}
}

// TestFullCachedWarmRebuild is the acceptance-criterion test: the warm
// rebuild executes zero step bodies and its artifact is byte-identical to
// the cold build (which itself matches the uncached renderer).
func TestFullCachedWarmRebuild(t *testing.T) {
	s, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	m := newMemo(t)

	cold, coldStats, err := FullCached(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Executed == 0 || coldStats.Hits != 0 {
		t.Fatalf("cold stats: %+v", coldStats)
	}

	plain, err := Full(s, par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if cold != plain {
		t.Fatal("cached cold build differs from uncached Full")
	}

	warm, warmStats, err := FullCached(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.Executed != 0 {
		t.Fatalf("warm rebuild executed %d step bodies", warmStats.Executed)
	}
	if warmStats.Hits != coldStats.Executed {
		t.Fatalf("warm hits %d != cold executions %d", warmStats.Hits, coldStats.Executed)
	}
	if warm != cold {
		t.Fatal("warm artifact not byte-identical to cold build")
	}
}

// TestStudyFingerprintSensitivity: equal content → equal fingerprint; any
// corpus or survey change → different fingerprint (cache invalidation).
func TestStudyFingerprintSensitivity(t *testing.T) {
	s1, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := StudyFingerprint(s1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := StudyFingerprint(s2)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("identical studies fingerprint differently")
	}

	// Mutate the corpus: tweak one tool description.
	cat := catalog.Default()
	cat.Tools[0].Description += " (edited)"
	s3, err := core.NewStudy(cat)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := StudyFingerprint(s3)
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Fatal("corpus edit did not change the fingerprint")
	}
}

// TestFullCachedInvalidation: a corpus edit flips section keys, so the
// rebuild re-renders instead of serving stale artifacts.
func TestFullCachedInvalidation(t *testing.T) {
	s1, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	m := newMemo(t)
	if _, _, err := FullCached(s1, m); err != nil {
		t.Fatal(err)
	}

	cat := catalog.Default()
	cat.Tools[0].Description += " (edited)"
	s2, err := core.NewStudy(cat)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := FullCached(s2, m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed == 0 {
		t.Fatal("edited study served entirely from cache (stale artifacts)")
	}
}

// The cas bench leg: cold = fresh store every iteration (every section
// renders), warm = primed store (zero bodies execute). `make bench-gate`
// holds both to BENCH_cas.json, which also records the per-iteration step
// executions.
func BenchmarkReportBuildCold(b *testing.B) {
	s, err := core.Default()
	if err != nil {
		b.Fatal(err)
	}
	var steps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &cas.Memo{Store: cas.NewMemStore(), Clock: clock.NewSim(1)}
		_, stats, err := FullCached(s, m)
		if err != nil {
			b.Fatal(err)
		}
		steps += stats.Executed
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

func BenchmarkReportBuildWarm(b *testing.B) {
	s, err := core.Default()
	if err != nil {
		b.Fatal(err)
	}
	m := &cas.Memo{Store: cas.NewMemStore(), Clock: clock.NewSim(1)}
	if _, _, err := FullCached(s, m); err != nil {
		b.Fatal(err)
	}
	var steps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := FullCached(s, m)
		if err != nil {
			b.Fatal(err)
		}
		steps += stats.Executed
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}
