package runpack

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/jcs"
)

func testManifest() Manifest {
	return Manifest{
		Experiment:  "continuum/test",
		Fingerprint: strings.Repeat("ab", 32),
		Params:      map[string]any{"n": 3, "mode": "fast"},
		RootSeed:    1,
		Seed:        424242,
		Metrics:     map[string]float64{"makespan_s": 12.5, "energy_j": 300},
		Provenance:  Provenance{Registry: "sms", Experiments: 35, Engine: "sms-exp/1", Store: "none"},
	}
}

func testArtifacts() map[string]string {
	return map[string]string{
		"table":  "col1 col2\n1 2\n",
		"report": strings.Repeat("line of report text\n", 50),
	}
}

func mustBuild(t *testing.T, key Key) *Pack {
	t.Helper()
	p, err := Build(testManifest(), testArtifacts(), key)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildVerifyRoundTripHMAC(t *testing.T) {
	key := NewHMACKey([]byte("secret"))
	p := mustBuild(t, key)
	if err := p.Verify(VerifyOpts{Key: &key}); err != nil {
		t.Fatalf("fresh pack fails verify: %v", err)
	}
	if p.ID != string(cas.KeyOf(p.Raw)) {
		t.Fatal("pack ID is not the manifest digest")
	}
	if !jcs.IsCanonical(p.Raw) {
		t.Fatal("manifest bytes are not canonical")
	}
	// Deterministic: building twice yields byte-identical manifests and IDs.
	q := mustBuild(t, key)
	if !bytes.Equal(p.Raw, q.Raw) || p.ID != q.ID || p.Sig != q.Sig {
		t.Fatal("building the same manifest twice drifted")
	}
}

func TestBuildVerifyRoundTripEd25519(t *testing.T) {
	key := NewEd25519Key([]byte("server material"))
	p := mustBuild(t, key)
	if err := p.Verify(VerifyOpts{Key: &key}); err != nil {
		t.Fatalf("private-key verify: %v", err)
	}
	if err := p.Verify(VerifyOpts{PubKey: key.Public()}); err != nil {
		t.Fatalf("public-key verify: %v", err)
	}
	if key.Public() == "" || len(key.Public()) != 64 {
		t.Fatalf("unexpected public key %q", key.Public())
	}
}

func TestVerifyWithoutKeyRequiresAcknowledgement(t *testing.T) {
	p := mustBuild(t, DevKey())
	if err := p.Verify(VerifyOpts{}); !errors.Is(err, ErrSignature) {
		t.Fatalf("keyless verify must fail with ErrSignature, got %v", err)
	}
	if err := p.Verify(VerifyOpts{SkipSignature: true}); err != nil {
		t.Fatalf("acknowledged integrity-only verify: %v", err)
	}
}

// The four tamper cases of the issue, each with its distinct error.

func TestTamperFlippedArtifactByte(t *testing.T) {
	key := DevKey()
	p := mustBuild(t, key)
	body := p.Blobs["report"]
	body[len(body)/2] ^= 0x01
	if err := p.Verify(VerifyOpts{Key: &key}); !errors.Is(err, ErrArtifactDigest) {
		t.Fatalf("flipped artifact byte: want ErrArtifactDigest, got %v", err)
	}
}

func TestTamperReorderedManifestKeys(t *testing.T) {
	key := DevKey()
	p := mustBuild(t, key)
	// Swap two adjacent manifest keys (experiment ↔ fingerprint), keeping
	// the JSON valid, and recompute the ID so the digest check alone would
	// pass — the canonical-form check must still reject it.
	exp := `"experiment":"continuum/test"`
	fp := `"fingerprint":"` + strings.Repeat("ab", 32) + `"`
	ordered := []byte(exp + "," + fp)
	swapped := []byte(fp + "," + exp)
	reordered := bytes.Replace(p.Raw, ordered, swapped, 1)
	if bytes.Equal(reordered, p.Raw) {
		t.Fatal("test setup: adjacent key pair not found in canonical manifest")
	}
	p.Raw = reordered
	p.ID = string(cas.KeyOf(reordered))
	p.Sig.ID = p.ID
	if err := p.Verify(VerifyOpts{Key: &key}); !errors.Is(err, ErrNotCanonical) {
		t.Fatalf("non-canonical manifest: want ErrNotCanonical, got %v", err)
	}
}

func TestTamperTruncatedBlob(t *testing.T) {
	key := DevKey()
	p := mustBuild(t, key)
	p.Blobs["report"] = p.Blobs["report"][:10]
	if err := p.Verify(VerifyOpts{Key: &key}); !errors.Is(err, ErrArtifactSize) {
		t.Fatalf("truncated blob: want ErrArtifactSize, got %v", err)
	}
}

func TestTamperWrongSignatureKey(t *testing.T) {
	p := mustBuild(t, NewHMACKey([]byte("right key")))
	wrong := NewHMACKey([]byte("wrong key"))
	if err := p.Verify(VerifyOpts{Key: &wrong}); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong HMAC key: want ErrSignature, got %v", err)
	}
	edA := NewEd25519Key([]byte("a"))
	edB := NewEd25519Key([]byte("b"))
	q := mustBuild(t, edA)
	if err := q.Verify(VerifyOpts{Key: &edB}); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong ed25519 key: want ErrSignature, got %v", err)
	}
	if err := q.Verify(VerifyOpts{PubKey: edB.Public()}); !errors.Is(err, ErrSignature) {
		t.Fatalf("wrong ed25519 public key: want ErrSignature, got %v", err)
	}
}

func TestTamperFlippedManifestByte(t *testing.T) {
	key := DevKey()
	p := mustBuild(t, key)
	// Flip a byte inside a value (keeping JSON valid and canonical-looking
	// is not required — digest check runs after canonical check, so flip a
	// digit in the seed, which stays canonical).
	raw := bytes.Replace(p.Raw, []byte("424242"), []byte("424243"), 1)
	if bytes.Equal(raw, p.Raw) {
		t.Fatal("test setup: seed literal not found")
	}
	p.Raw = raw
	if err := p.Verify(VerifyOpts{Key: &key}); !errors.Is(err, ErrManifestDigest) {
		t.Fatalf("flipped manifest byte: want ErrManifestDigest, got %v", err)
	}
}

func TestTamperMissingAndUnknownBlobs(t *testing.T) {
	key := DevKey()
	p := mustBuild(t, key)
	delete(p.Blobs, "table")
	if err := p.Verify(VerifyOpts{Key: &key}); !errors.Is(err, ErrArtifactMissing) {
		t.Fatalf("missing blob: want ErrArtifactMissing, got %v", err)
	}
	p = mustBuild(t, key)
	p.Blobs["smuggled"] = []byte("x")
	if err := p.Verify(VerifyOpts{Key: &key}); !errors.Is(err, ErrArtifactUnknown) {
		t.Fatalf("unsealed blob: want ErrArtifactUnknown, got %v", err)
	}
}

func TestWriteReadDirRoundTrip(t *testing.T) {
	key := DevKey()
	p := mustBuild(t, key)
	dir := filepath.Join(t.TempDir(), "pack")
	if err := p.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	q, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Verify(VerifyOpts{Key: &key}); err != nil {
		t.Fatalf("re-read pack fails verify: %v", err)
	}
	if !bytes.Equal(p.Raw, q.Raw) || p.ID != q.ID {
		t.Fatal("dir round-trip changed manifest bytes or ID")
	}
	if len(q.Blobs) != len(p.Blobs) {
		t.Fatalf("dir round-trip lost blobs: %d vs %d", len(q.Blobs), len(p.Blobs))
	}
	// On-disk tamper: flip one byte of a stored blob, re-read, verify fails
	// with the artifact-digest error.
	var blobPath string
	filepath.Walk(filepath.Join(dir, "blobs", "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && blobPath == "" {
			blobPath = path
		}
		return nil
	})
	if blobPath == "" {
		t.Fatal("no blob files on disk")
	}
	data, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x80
	if err := os.WriteFile(blobPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The blob no longer matches its content address, so ReadDir will not
	// find it under the sealed digest — verify reports it missing. Restore
	// the byte and instead corrupt the manifest to hit the digest error.
	q2, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = q2.Verify(VerifyOpts{Key: &key})
	if !errors.Is(err, ErrArtifactMissing) && !errors.Is(err, ErrArtifactDigest) {
		t.Fatalf("on-disk blob tamper: want artifact error, got %v", err)
	}
}

// Reading and verifying a pack writes nothing into it: a committed golden
// stays byte-for-byte what git checked out, and a read-only copy verifies.
func TestReadDirVerifyLeavesPackUnchanged(t *testing.T) {
	golden := filepath.Join("..", "..", "goldens", "runpacks", "continuum__io")
	dir := t.TempDir()
	err := filepath.WalkDir(golden, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(golden, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	before := treeListing(t, dir)
	p, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := DevKey()
	if err := p.Verify(VerifyOpts{Key: &key}); err != nil {
		t.Fatalf("golden copy fails verify: %v", err)
	}
	if after := treeListing(t, dir); after != before {
		t.Fatalf("ReadDir+Verify changed the pack:\nbefore:\n%safter:\n%s", before, after)
	}
}

// treeListing is the recursive listing of dir: every path with its mode and size.
func treeListing(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(&sb, "%s %v %d\n", rel, fi.Mode(), fi.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestBundleRoundTripAndOfflineVerify(t *testing.T) {
	key := NewEd25519Key([]byte("daemon"))
	p := mustBuild(t, key)
	data, err := p.EncodeBundle()
	if err != nil {
		t.Fatal(err)
	}
	if !jcs.IsCanonical(data) {
		t.Fatal("bundle encoding is not canonical")
	}
	q, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	// Offline: only the public key, no shared secret.
	if err := q.Verify(VerifyOpts{PubKey: key.Public()}); err != nil {
		t.Fatalf("offline bundle verify: %v", err)
	}
	// A flipped artifact byte inside a decoded bundle is detected.
	q2, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	q2.Blobs["table"][0] ^= 1
	if err := q2.Verify(VerifyOpts{PubKey: key.Public()}); !errors.Is(err, ErrArtifactDigest) {
		t.Fatalf("tampered bundle artifact: want ErrArtifactDigest, got %v", err)
	}
}

func TestDiffReportsFieldLevelDrift(t *testing.T) {
	key := DevKey()
	a := mustBuild(t, key)
	// Same manifest → identical.
	b := mustBuild(t, key)
	if d := Diff(a, b); !d.Equal() {
		t.Fatalf("identical packs diff: %s", d.Text())
	}

	// Drift one artifact byte, one metric, and the cache provenance.
	m := testManifest()
	m.Metrics["energy_j"] = 301
	m.Provenance.Cached = true
	arts := testArtifacts()
	arts["table"] = "col1 col2\n1 3\n" // differs at offset 12
	c, err := Build(m, arts, key)
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(a, c)
	if !d.Material || !d.Provenance {
		t.Fatalf("expected material+provenance drift, got %+v", d)
	}
	text := d.Text()
	for _, want := range []string{
		`artifact "table"`, "first differing byte at offset 12",
		`metric "energy_j": 300 != 301 (drift +1)`,
		"provenance.cached: false != true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("diff text missing %q:\n%s", want, text)
		}
	}
	// The untouched artifact does not appear.
	if strings.Contains(text, `artifact "report"`) {
		t.Errorf("diff text mentions unchanged artifact:\n%s", text)
	}

	// Provenance-only drift is not material.
	m2 := testManifest()
	m2.Provenance.Store = "disk"
	e, err := Build(m2, testArtifacts(), key)
	if err != nil {
		t.Fatal(err)
	}
	d2 := Diff(a, e)
	if d2.Material || !d2.Provenance {
		t.Fatalf("store drift must be provenance-only, got %+v", d2)
	}
}

func TestFirstDiffOffset(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"abc", "abc", -1},
		{"abc", "abd", 2},
		{"abc", "ab", 2},
		{"", "x", 0},
		{"", "", -1},
	}
	for _, c := range cases {
		if got := firstDiffOffset([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("firstDiffOffset(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// The key pair expanded once in NewEd25519Key signs and publishes exactly
// what a pair expanded from the seed on every call does: ed25519 signing
// is deterministic, so signatures, pack IDs and goldens stay byte-identical.
func TestEd25519KeyMatchesFreshExpansion(t *testing.T) {
	for _, material := range []string{"server material", "", "smsd/pack-key/v1|1"} {
		seed := sha256.Sum256(append([]byte("runpack/ed25519-seed/v1|"), material...))
		fresh := ed25519.NewKeyFromSeed(seed[:])
		wantPub := hex.EncodeToString(fresh.Public().(ed25519.PublicKey))
		key := NewEd25519Key([]byte(material))
		if got := key.Public(); got != wantPub {
			t.Fatalf("%q: public key %s, want %s", material, got, wantPub)
		}
		raw := []byte(`{"experiment":"continuum/test"}`)
		sig, err := key.Sign("id", raw)
		if err != nil {
			t.Fatal(err)
		}
		if want := hex.EncodeToString(ed25519.Sign(fresh, raw)); sig.Sig != want || sig.PubKey != wantPub {
			t.Fatalf("%q: signature %+v, want sig %s pubkey %s", material, sig, want, wantPub)
		}
		if err := sig.VerifyWith(key, raw); err != nil {
			t.Fatalf("%q: %v", material, err)
		}
	}
	if pub := DevKey().Public(); pub != "" {
		t.Fatalf("hmac key has public key %q", pub)
	}
}

// FuzzDecodeBundle feeds arbitrary bytes to DecodeBundle, the parser of
// bundles a client fetched from smsd. It never panics and returns a pack or
// an error, never both; a decoded pack's Verify under DevKey returns nil or
// an error that wraps exactly one of Verify's sentinels.
func FuzzDecodeBundle(f *testing.F) {
	key := DevKey()
	sentinels := []error{ErrFormat, ErrNotCanonical, ErrManifestDigest, ErrSignature,
		ErrArtifactMissing, ErrArtifactSize, ErrArtifactDigest, ErrArtifactUnknown}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeBundle(data)
		if (p == nil) == (err == nil) {
			t.Fatalf("DecodeBundle = pack %v, err %v; want exactly one", p != nil, err)
		}
		if err != nil {
			return
		}
		err = p.Verify(VerifyOpts{Key: &key})
		if err == nil {
			return
		}
		n := 0
		for _, s := range sentinels {
			if errors.Is(err, s) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("Verify: %v wraps %d sentinels, want 1", err, n)
		}
	})
}
