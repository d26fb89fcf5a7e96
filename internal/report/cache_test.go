package report

import (
	"testing"

	"repro/internal/cas"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/par"
)

// storeEnv returns an environment that memoizes report sections in a
// fresh in-memory store.
func storeEnv() *exp.Env { return &exp.Env{Store: cas.NewMemStore()} }

// TestFullCachedWarmRebuild is the acceptance-criterion test: the warm
// rebuild renders zero sections and its artifact is byte-identical to the
// cold build (which itself matches the storeless renderer).
func TestFullCachedWarmRebuild(t *testing.T) {
	s, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	env := storeEnv()

	cold, coldStats, err := FullEnv(s, env)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.ShardsExecuted == 0 || coldStats.ShardsCached != 0 {
		t.Fatalf("cold stats: %+v", coldStats)
	}

	plain, err := Full(s, par.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if cold != plain {
		t.Fatal("cached cold build differs from uncached Full")
	}

	warm, warmStats, err := FullEnv(s, env)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.ShardsExecuted != 0 {
		t.Fatalf("warm rebuild rendered %d sections", warmStats.ShardsExecuted)
	}
	if warmStats.ShardsCached != coldStats.ShardsExecuted {
		t.Fatalf("warm hits %d != cold renders %d", warmStats.ShardsCached, coldStats.ShardsExecuted)
	}
	if warm != cold {
		t.Fatal("warm artifact not byte-identical to cold build")
	}
}

// Section keys and their stored form are part of the cache format: a
// change to either turns every existing -cache directory cold. These are
// the links, and their artifact targets, that the default study stores for
// its first and last sections.
func TestSectionKeysPinned(t *testing.T) {
	s, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	env := storeEnv()
	if _, _, err := FullEnv(s, env); err != nil {
		t.Fatal(err)
	}
	links, err := env.Store.Links()
	if err != nil {
		t.Fatal(err)
	}
	linked := map[cas.Key]bool{}
	for _, k := range links {
		linked[k] = true
	}
	for _, c := range []struct {
		id          string
		key, target cas.Key
	}{
		{"protocol",
			"227091c112319ff4cc4b2cc2f0dc383d1aa5383aaa69b4a6a266b1b08d2acff3",
			"3be28e32f53fe04eb03c0db75fe65eed20059467d989cf97b734a96f36be4f53"},
		{"maturity",
			"73dcf3caf5ab388ad91ae76a34c22f9c5ae394dceecef31e3520b22ad24c88a5",
			"ee91e0a8a19bd38c32c70bb8d725ae86cfc41251e63fb67bdc6bb72c1405f91b"},
	} {
		if !linked[c.key] {
			t.Errorf("section %s: no link under pinned key %s", c.id, c.key.Short())
			continue
		}
		if target, _, err := env.Store.Resolve(c.key); err != nil || target != c.target {
			t.Errorf("section %s: key links to %s (err %v), want %s", c.id, target.Short(), err, c.target.Short())
		}
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
	f1, err := s1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s2.Fingerprint()
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
	f3, err := s3.Fingerprint()
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
	env := storeEnv()
	if _, _, err := FullEnv(s1, env); err != nil {
		t.Fatal(err)
	}

	cat := catalog.Default()
	cat.Tools[0].Description += " (edited)"
	s2, err := core.NewStudy(cat)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := FullEnv(s2, env)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardsExecuted == 0 {
		t.Fatal("edited study served entirely from cache (stale artifacts)")
	}
}

// The cas bench leg: cold = fresh store every iteration (every section
// renders), warm = primed store (no section renders). `make bench-gate`
// holds both to BENCH_cas.json, which also records the sections rendered
// per iteration as steps/op.
func BenchmarkReportBuildCold(b *testing.B) {
	s, err := core.Default()
	if err != nil {
		b.Fatal(err)
	}
	var steps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := FullEnv(s, storeEnv())
		if err != nil {
			b.Fatal(err)
		}
		steps += stats.ShardsExecuted
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

func BenchmarkReportBuildWarm(b *testing.B) {
	s, err := core.Default()
	if err != nil {
		b.Fatal(err)
	}
	env := storeEnv()
	if _, _, err := FullEnv(s, env); err != nil {
		b.Fatal(err)
	}
	var steps int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := FullEnv(s, env)
		if err != nil {
			b.Fatal(err)
		}
		steps += stats.ShardsExecuted
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}
