// Package runpack seals an experiment run into a verifiable, replayable
// artifact: the maturity step that turns the repository's determinism from
// a test property into a shippable receipt.
//
// A runpack is a canonical-JSON manifest (internal/jcs) carrying the run's
// declarative identity — Spec fingerprint and params, root and derived
// seeds — plus the sorted SHA-256 digests of every artifact, the scalar
// metrics, and provenance (registry, engine version, cache state). The
// SHA-256 of the canonical manifest bytes is the runpack ID; an HMAC or
// ed25519 signature over those same bytes makes tampering detectable; the
// artifact blobs travel beside the manifest, content-addressed through
// internal/cas. Anyone holding the pack can:
//
//   - verify it offline (digest + signature + per-blob hashes),
//   - diff it against another pack field-by-field in the Missier
//     "provenance differencing" sense (which artifact, which byte offset,
//     which metric drifted), and
//   - regress it: re-execute the Spec through the registry and fail on any
//     byte of drift — the cross-machine reproducibility gate the mapped
//     literature (Missier et al., Diercks et al.) asks workflow systems
//     for.
//
// The package is deliberately independent of internal/exp: it speaks in
// names, seeds, and byte maps, so exp can layer RunPacked on top without
// an import cycle.
package runpack

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cas"
	"repro/internal/jcs"
)

// Format is the manifest format identifier; bump on schema change.
const Format = "runpack/v1"

// BundleFormat identifies the single-document bundle encoding served over
// HTTP (manifest bytes + signature + base64 blobs in one canonical JSON).
const BundleFormat = "runpack-bundle/v1"

// ArtifactRef is one sealed artifact: its name, content digest, and size.
type ArtifactRef struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Provenance records how the run was produced — the environment facts a
// verifier may legitimately see drift in without the result itself having
// drifted (engine upgrades, cache temperature).
type Provenance struct {
	// Registry names the experiment assembly that ran the spec.
	Registry string `json:"registry"`
	// Experiments is the registry size at pack time.
	Experiments int `json:"experiments"`
	// Engine is the experiment-engine version string.
	Engine string `json:"engine"`
	// Store is the cache backing of the run: "none", "mem", or "disk".
	Store string `json:"store"`
	// Cached reports whether the result was served from the store without
	// executing the body.
	Cached bool `json:"cached"`
}

// Manifest is the sealed identity of a run. Its canonical JSON encoding
// (internal/jcs) is the signature scope, and the SHA-256 of those bytes is
// the runpack ID.
type Manifest struct {
	Format      string             `json:"format"`
	Experiment  string             `json:"experiment"`
	Fingerprint string             `json:"fingerprint"`
	Params      map[string]any     `json:"params,omitempty"`
	RootSeed    int64              `json:"root_seed"`
	Seed        int64              `json:"seed"`
	Artifacts   []ArtifactRef      `json:"artifacts"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Provenance  Provenance         `json:"provenance"`
}

// Pack is a sealed runpack held in memory: the manifest (parsed and raw),
// its ID, the signature, and the artifact blobs by name.
type Pack struct {
	Manifest Manifest
	// Raw is the canonical manifest encoding — the exact signature scope.
	Raw []byte
	// ID is the runpack identity: hex SHA-256 of Raw.
	ID  string
	Sig Signature
	// Blobs maps artifact name to bytes.
	Blobs map[string][]byte
}

// Build seals a manifest and its artifact bodies into a signed Pack. The
// manifest's Artifacts field is derived here from the bodies (sorted by
// name), so callers never hand-maintain digests.
func Build(m Manifest, artifacts map[string]string, key Key) (*Pack, error) {
	if m.Format == "" {
		m.Format = Format
	}
	if m.Format != Format {
		return nil, fmt.Errorf("runpack: unsupported manifest format %q", m.Format)
	}
	names := make([]string, 0, len(artifacts))
	for n := range artifacts {
		names = append(names, n)
	}
	sort.Strings(names)
	m.Artifacts = make([]ArtifactRef, 0, len(names))
	blobs := make(map[string][]byte, len(names))
	for _, n := range names {
		body := []byte(artifacts[n])
		m.Artifacts = append(m.Artifacts, ArtifactRef{
			Name: n, SHA256: string(cas.KeyOf(body)), Bytes: int64(len(body)),
		})
		blobs[n] = body
	}
	raw, err := jcs.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("runpack: encoding manifest: %w", err)
	}
	id := string(cas.KeyOf(raw))
	sig, err := key.Sign(id, raw)
	if err != nil {
		return nil, err
	}
	return &Pack{Manifest: m, Raw: raw, ID: id, Sig: sig, Blobs: blobs}, nil
}

// Filenames inside a runpack directory.
const (
	manifestFile  = "manifest.json"
	signatureFile = "signature.json"
	blobsDir      = "blobs"
)

// WriteDir materializes the pack under dir:
//
//	dir/manifest.json    canonical manifest bytes (the signature scope)
//	dir/signature.json   canonical Signature (id, algo, sig, pubkey)
//	dir/blobs/…          artifact blobs in a cas.DiskStore layout
//
// Blob storage is content-addressed, so identical artifacts across packs
// sharing a store directory deduplicate, and a blob's path is its digest —
// the manifest is the only name table.
func (p *Pack) WriteDir(dir string) error {
	store, err := cas.NewDiskStore(filepath.Join(dir, blobsDir))
	if err != nil {
		return err
	}
	for name, body := range p.Blobs {
		if _, err := store.Put(body); err != nil {
			return fmt.Errorf("runpack: storing blob %q: %w", name, err)
		}
	}
	sigRaw, err := jcs.Marshal(p.Sig)
	if err != nil {
		return fmt.Errorf("runpack: encoding signature: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), p.Raw, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, signatureFile), append(sigRaw, '\n'), 0o644)
}

// ReadDir loads a pack written by WriteDir. Blobs are looked up by the
// digests the manifest claims; a missing blob is not an error here — Verify
// reports it as ErrArtifactMissing, keeping read and check separable. A blob
// whose bytes no longer match its digest (cas.ErrCorrupt) counts as missing.
// Reading writes nothing into dir.
func ReadDir(dir string) (*Pack, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("runpack: reading manifest: %w", err)
	}
	sigRaw, err := os.ReadFile(filepath.Join(dir, signatureFile))
	if err != nil {
		return nil, fmt.Errorf("runpack: reading signature: %w", err)
	}
	var sig Signature
	if err := json.Unmarshal(sigRaw, &sig); err != nil {
		return nil, fmt.Errorf("runpack: parsing signature: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("runpack: parsing manifest: %w", err)
	}
	p := &Pack{Manifest: m, Raw: raw, ID: sig.ID, Sig: sig, Blobs: map[string][]byte{}}
	store, err := cas.NewDiskStore(filepath.Join(dir, blobsDir))
	if err != nil {
		return nil, err
	}
	for _, ref := range m.Artifacts {
		k := cas.Key(ref.SHA256)
		if !k.Valid() {
			continue // Verify reports the malformed digest
		}
		body, ok, err := store.Get(k)
		if err != nil && !errors.Is(err, cas.ErrCorrupt) {
			return nil, fmt.Errorf("runpack: reading blob %q: %w", ref.Name, err)
		}
		if ok {
			p.Blobs[ref.Name] = body
		}
	}
	return p, nil
}

// bundle is the wire form of a pack: one canonical JSON document.
type bundle struct {
	Format   string            `json:"format"`
	Manifest string            `json:"manifest_b64"`
	Sig      Signature         `json:"signature"`
	Blobs    map[string]string `json:"artifacts_b64,omitempty"`
}

// EncodeBundle renders the pack as a single self-contained JSON document —
// the representation GET /experiments/{id}/runpack serves. The manifest
// travels base64-encoded so its exact bytes (the signature scope) survive
// any JSON re-encoding of the envelope.
func (p *Pack) EncodeBundle() ([]byte, error) {
	b := bundle{Format: BundleFormat,
		Manifest: base64.StdEncoding.EncodeToString(p.Raw), Sig: p.Sig}
	if len(p.Blobs) > 0 {
		b.Blobs = make(map[string]string, len(p.Blobs))
		for n, body := range p.Blobs {
			b.Blobs[n] = base64.StdEncoding.EncodeToString(body)
		}
	}
	return jcs.Marshal(b)
}

// DecodeBundle parses a bundle back into a Pack (the inverse of
// EncodeBundle). The result still needs Verify — decoding checks shape,
// not integrity.
func DecodeBundle(data []byte) (*Pack, error) {
	var b bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("runpack: parsing bundle: %w", err)
	}
	if b.Format != BundleFormat {
		return nil, fmt.Errorf("runpack: unsupported bundle format %q", b.Format)
	}
	raw, err := base64.StdEncoding.DecodeString(b.Manifest)
	if err != nil {
		return nil, fmt.Errorf("runpack: bundle manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("runpack: bundle manifest: %w", err)
	}
	p := &Pack{Manifest: m, Raw: raw, ID: b.Sig.ID, Sig: b.Sig, Blobs: map[string][]byte{}}
	for n, enc := range b.Blobs {
		body, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return nil, fmt.Errorf("runpack: bundle artifact %q: %w", n, err)
		}
		p.Blobs[n] = body
	}
	return p, nil
}
