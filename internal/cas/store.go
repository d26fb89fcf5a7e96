// Package cas is the repository's persistence layer: a content-addressed
// artifact store with a memoization layer over the workflow engine, which
// is also how a run resumes after a mid-run fault, and a journal of each
// run's steps.
//
// The design follows the provenance-based-reuse literature the paper's
// orchestration direction points at: Missier et al. key step reuse on
// hashes of step inputs, and Diercks et al. rate re-execution avoidance as
// a first-class capability of reproducible workflow tools. Four pieces:
//
//   - Store (this file): SHA-256-keyed blob storage with an in-memory and
//     an on-disk backend behind one interface, plus a link table mapping
//     derived keys (memo keys) to artifact keys. Iteration order is
//     deterministic (sorted keys) so store dumps are stable artifacts. The
//     on-disk backend is a cache that may forget but never serves a wrong
//     byte: it fsyncs nothing, and what a crash loses or tears reads as a
//     miss.
//   - Recall, Remember and Memoize (recall.go): the one memo read path,
//     write path and JSON memo that every memo in the repository calls.
//     Recall reads a missing or corrupt object as a miss, and the Put of
//     the re-derived bytes replaces a corrupt one.
//   - Memo (memo.go): caches workflow step results under a key derived
//     from (workflow name, step ID, body fingerprint, dep-result hashes);
//     cache hits skip step bodies entirely, so a re-run after a fault
//     re-executes only the steps that had not completed.
//   - Journal (checkpoint.go): an append-only record of completed steps,
//     stamped on the injected clock.
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Key is the hex form of a SHA-256 digest. Artifact keys are digests of
// the stored bytes (content addressing); memo keys are digests of the
// step-input recipe (see StepKey).
type Key string

// KeyOf returns the content key of data: SHA-256, hex-encoded.
func KeyOf(data []byte) Key {
	sum := sha256.Sum256(data)
	return Key(hex.EncodeToString(sum[:]))
}

// Valid reports whether k looks like a SHA-256 hex digest.
func (k Key) Valid() bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Short returns the conventional 12-character abbreviation of the key.
func (k Key) Short() string {
	if len(k) < 12 {
		return string(k)
	}
	return string(k[:12])
}

// Store is the persistence interface: content-addressed blobs plus a link
// table from derived keys (memo keys) to artifact keys. Implementations
// must be safe for concurrent use and must iterate in sorted key order.
type Store interface {
	// Put stores data and returns its content key. Storing the same bytes
	// twice is a no-op returning the same key (deduplication).
	Put(data []byte) (Key, error)
	// Get returns the blob for an artifact key (ok=false when absent).
	Get(k Key) ([]byte, bool, error)
	// Link records name → target in the link table, overwriting any
	// previous target (last write wins).
	Link(name, target Key) error
	// Resolve looks up a link (ok=false when absent).
	Resolve(name Key) (Key, bool, error)
	// Keys returns every artifact key in sorted order.
	Keys() ([]Key, error)
	// Links returns every link name in sorted order.
	Links() ([]Key, error)
	// Bytes returns the total size of all stored blobs.
	Bytes() (int64, error)
}

// MemStore is the in-memory Store backend. The zero value is not usable;
// call NewMemStore.
type MemStore struct {
	mu      sync.RWMutex
	objects map[Key][]byte
	links   map[Key]Key
	bytes   int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: map[Key][]byte{}, links: map[Key]Key{}}
}

// Put implements Store.
func (m *MemStore) Put(data []byte) (Key, error) {
	k := KeyOf(data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[k]; !ok {
		m.objects[k] = append([]byte(nil), data...)
		m.bytes += int64(len(data))
	}
	return k, nil
}

// Get implements Store.
func (m *MemStore) Get(k Key) ([]byte, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[k]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

// Link implements Store.
func (m *MemStore) Link(name, target Key) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.links[name] = target
	return nil
}

// Resolve implements Store.
func (m *MemStore) Resolve(name Key) (Key, bool, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.links[name]
	return t, ok, nil
}

// Keys implements Store.
func (m *MemStore) Keys() ([]Key, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return sortedKeys(m.objects), nil
}

// Links implements Store.
func (m *MemStore) Links() ([]Key, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return sortedKeys(m.links), nil
}

// Bytes implements Store.
func (m *MemStore) Bytes() (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes, nil
}

func sortedKeys[V any](m map[Key]V) []Key {
	out := make([]Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ErrCorrupt reports a stored object whose bytes no longer hash to its key.
// DiskStore.Get returns it, wrapped, in place of the bytes, so a flipped bit
// on disk is never served as the artifact its key names. Recall reads it as
// a miss.
var ErrCorrupt = errors.New("cas: corrupt object")

// DiskStore is the on-disk Store backend. Layout under the base directory:
//
//	objects/<first 2 hex>/<remaining 62 hex>   blob bytes
//	links.log                                  link records, append-only
//
// A DiskStore is a cache that may forget, never one that serves a wrong
// byte. Every object and link is a deterministic function of its key, so
// nothing is fsynced: a crash may lose or tear objects and link records,
// and each such loss reads as a memo miss (see Recall) that re-derives it.
// Objects go through a temp file + rename in the same directory, so a
// reader sees a whole file or none, and concurrent writers of the same
// content converge on identical bytes.
//
// The link table is held in memory: NewDiskStore replays links.log into it,
// so Resolve and Links never touch the disk, and Link appends one record
// (see linkRecord) and then updates the table. A store sees the links other
// processes append when it is opened, not afterwards. A link it misses is a
// memo miss, never a wrong result.
type DiskStore struct {
	base string

	// wmu is held across one log write, its descriptor's Close and the
	// table update after them, so the table agrees with the log's record
	// order. Readers take mu instead and never wait on a syscall.
	wmu sync.Mutex

	mu    sync.RWMutex // guards links
	links map[Key]Key
}

// linkLog is the link log's file name under the base directory.
const linkLog = "links.log"

// NewDiskStore opens a disk store rooted at dir. It creates dir when it is
// missing and nothing else: the first Put creates objects/ and the first
// Link creates links.log, so opening a store only to read it (a runpack
// being verified) leaves it unchanged. A links/ directory of per-link files
// written by older versions is not read.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: creating store dir: %w", err)
	}
	log, err := os.ReadFile(filepath.Join(dir, linkLog))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("cas: reading link log: %w", err)
	}
	d := &DiskStore{base: dir, links: map[Key]Key{}}
	replayLinks(log, d.links)
	return d, nil
}

func (d *DiskStore) objectPath(k Key) string {
	return filepath.Join(d.base, "objects", string(k[:2]), string(k[2:]))
}

// A link record is one line, framed by a newline on each side:
//
//	\n<name> <target> <crc>\n
//
// where <crc> is the CRC-32 (IEEE) of "<name> <target>" as 8 lowercase hex
// digits. The leading newline ends any torn line a crashed writer left
// before the record, and the trailing one ends the record itself, so damage
// inside one record never reaches its neighbours.
const linkBodyLen = 64 + 1 + 64 // "<name> <target>"

// linkRecord encodes the log record of one Link.
func linkRecord(name, target Key) []byte {
	body := string(name) + " " + string(target)
	sum := linkCRC([]byte(body))
	return []byte("\n" + body + " " + string(sum[:]) + "\n")
}

// linkCRC is the <crc> field for a record body.
func linkCRC(body []byte) [8]byte {
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	var out [8]byte
	hex.Encode(out[:], sum[:])
	return out
}

// parseLinkLine decodes one log line, without its newline. ok is false
// unless the line is exactly a record: two valid keys and the CRC of the
// body, in full.
func parseLinkLine(line []byte) (name, target Key, ok bool) {
	if len(line) <= linkBodyLen || line[64] != ' ' || line[linkBodyLen] != ' ' {
		return "", "", false
	}
	if sum := linkCRC(line[:linkBodyLen]); !bytes.Equal(line[linkBodyLen+1:], sum[:]) {
		return "", "", false
	}
	name, target = Key(line[:64]), Key(line[65:linkBodyLen])
	return name, target, name.Valid() && target.Valid()
}

// replayLinks folds a link log into links in log order, so the last record
// of a name wins. A line that is not a record (a torn tail, a flipped byte,
// anything else) is skipped: replay cannot fail on log content.
func replayLinks(log []byte, links map[Key]Key) {
	for _, line := range bytes.Split(log, []byte{'\n'}) {
		if name, target, ok := parseLinkLine(line); ok {
			links[name] = target
		}
	}
}

// writeAtomic writes data to path via temp file + rename, so a reader sees
// the old file or the whole new one. Nothing is fsynced: after a crash the
// file may be missing or hold other bytes, which Get reports as absent or
// ErrCorrupt, never as the object. Objects land world-readable (0o644)
// regardless of the process umask — CreateTemp's 0o600 default would make a
// store written by one user unreadable to the review tooling that later
// serves it. Every failure path removes the temp file; a failed write
// leaves no .tmp-* litter behind.
func (d *DiskStore) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Put implements Store. It dedups onto an existing object only when that
// object still holds data; any other file under the key (torn by a crash,
// or flipped on disk) is replaced, so putting the original bytes heals it.
func (d *DiskStore) Put(data []byte) (Key, error) {
	k := KeyOf(data)
	path := d.objectPath(k)
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		return k, nil // dedup: content already present
	}
	if err := d.writeAtomic(path, data); err != nil {
		return "", fmt.Errorf("cas: writing object %s: %w", k.Short(), err)
	}
	return k, nil
}

// Get implements Store. It re-hashes the bytes it reads: an object that no
// longer matches its key is an ErrCorrupt error, and no bytes. Get writes
// nothing, so reading a damaged runpack leaves it as it is.
func (d *DiskStore) Get(k Key) ([]byte, bool, error) {
	if !k.Valid() {
		return nil, false, fmt.Errorf("cas: malformed key %q", k)
	}
	data, err := os.ReadFile(d.objectPath(k))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cas: reading object %s: %w", k.Short(), err)
	}
	if KeyOf(data) != k {
		return nil, false, fmt.Errorf("%w %s: its bytes no longer hash to its key", ErrCorrupt, k.Short())
	}
	return data, true, nil
}

// Link implements Store. The record reaches links.log in one write on an
// O_APPEND descriptor, and the table changes only once that write and the
// descriptor's Close succeeded, so a failed Link leaves the old target. The
// log is not fsynced: a crash may cut it, and replay skips the cut record.
func (d *DiskStore) Link(name, target Key) error {
	if !name.Valid() || !target.Valid() {
		return fmt.Errorf("cas: malformed link %q -> %q", name, target)
	}
	f, err := d.openLog()
	if err != nil {
		return fmt.Errorf("cas: writing link %s: %w", name.Short(), err)
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	_, err = f.Write(linkRecord(name, target))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cas: writing link %s: %w", name.Short(), err)
	}
	d.mu.Lock()
	d.links[name] = target
	d.mu.Unlock()
	return nil
}

// openLog opens links.log for appending. The Link that finds no log creates
// it, 0644 whatever the umask.
func (d *DiskStore) openLog() (*os.File, error) {
	path := filepath.Join(d.base, linkLog)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if !errors.Is(err, fs.ErrNotExist) {
		return f, err
	}
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Resolve implements Store, from the in-memory table.
func (d *DiskStore) Resolve(name Key) (Key, bool, error) {
	if !name.Valid() {
		return "", false, fmt.Errorf("cas: malformed key %q", name)
	}
	d.mu.RLock()
	target, ok := d.links[name]
	d.mu.RUnlock()
	return target, ok, nil
}

// Links implements Store.
func (d *DiskStore) Links() ([]Key, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return sortedKeys(d.links), nil
}

// Keys implements Store: a walk of the objects tree, sorted.
func (d *DiskStore) Keys() ([]Key, error) {
	root := filepath.Join(d.base, "objects")
	prefixes, err := os.ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // nothing Put yet
	}
	if err != nil {
		return nil, err
	}
	var out []Key
	for _, p := range prefixes {
		if !p.IsDir() || len(p.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, p.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			k := Key(p.Name() + f.Name())
			if k.Valid() {
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Bytes implements Store.
func (d *DiskStore) Bytes() (int64, error) {
	keys, err := d.Keys()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, k := range keys {
		fi, err := os.Stat(d.objectPath(k))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
