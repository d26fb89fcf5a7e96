package cas

import (
	"encoding/json"
	"sync"
)

// Recall resolves name and reads the artifact it links to, through s's
// Resolve and then its Get. found reports the artifact's bytes; a name that
// does not resolve has no target, and a dangling link (its artifact is
// gone) a target but no bytes. A store error, ErrCorrupt among them, is
// returned as it is: no reader serves or skips bytes that fail their key.
func Recall(s Store, name Key) (target Key, data []byte, found bool, err error) {
	target, ok, err := s.Resolve(name)
	if err != nil || !ok {
		return "", nil, false, err
	}
	if data, found, err = s.Get(target); err != nil {
		return "", nil, false, err
	}
	return target, data, found, nil
}

// Remember stores data and links name to it, through s's Put and then its
// Link, and returns the artifact's key. It links only after Put returned
// (DESIGN §5 item 1): a crash between the two leaves an object nothing
// links to, never a link to bytes the store lacks.
func Remember(s Store, name Key, data []byte) (Key, error) {
	target, err := s.Put(data)
	if err != nil {
		return "", err
	}
	return target, s.Link(name, target)
}

// Memoized reports how Memoize satisfied a key.
type Memoized struct {
	Hit    bool // the value was recalled; compute did not run
	Target Key  // the artifact key links to
	Size   int  // the bytes recalled or stored
}

// A CodecError is a memoized value that encoding/json could not encode, or
// stored bytes that it could not decode into one.
type CodecError struct {
	Op  string // "encoding" or "decoding cached"
	Err error
}

func (e *CodecError) Error() string { return e.Op + " value: " + e.Err.Error() }

// Memoize fills *v with the value memoized under key. When Recall finds
// it, its JSON is decoded into *v: a hit. Otherwise compute runs, and its
// value goes into *v and is remembered as the compact encoding/json bytes
// every memo stores. Store errors and compute's error are returned as they
// are; a value that does not encode or decode is a *CodecError.
//
// Concurrent misses on one key of one store run compute once: the first
// claims the key, and the others wait, then recall its value as a hit. A
// failed compute errs for its own caller only, and a waiter claims the key.
// A hit takes no claim. Waiting cannot deadlock: claims nest one way only,
// a whole experiment result and then its shards, and shard bodies take
// none (the report's corpus section classifies on a storeless Env). Claims
// are keyed by the store value, which must be comparable; every Store in
// the repository is a pointer.
func Memoize[T any](s Store, key Key, v *T, compute func() (T, error)) (Memoized, error) {
	for claimed := false; ; {
		target, data, found, err := Recall(s, key)
		if found {
			err = decode(data, v)
		}
		if err != nil || found {
			if claimed {
				release(s, key)
			}
			return Memoized{Hit: err == nil, Target: target, Size: len(data)}, err
		}
		if claimed {
			break
		}
		// A claim won after another caller's value was remembered finds
		// it on the second Recall above.
		claimed = claim(s, key)
	}
	defer release(s, key)
	val, err := compute()
	if err != nil {
		return Memoized{}, err
	}
	// Encoding through v, not val, keeps val off the heap.
	*v = val
	data, err := json.Marshal(v)
	if err != nil {
		return Memoized{}, &CodecError{Op: "encoding", Err: err}
	}
	target, err := Remember(s, key, data)
	if err != nil {
		return Memoized{}, err
	}
	return Memoized{Target: target, Size: len(data)}, nil
}

// decode is the one decoder of memoized values.
func decode[T any](data []byte, v *T) error {
	if err := json.Unmarshal(data, v); err != nil {
		return &CodecError{Op: "decoding cached", Err: err}
	}
	return nil
}

// claims holds the keys being computed, each with the channel its waiters
// block on (nil until the first waiter arrives). An entry lives only while
// its compute runs, so the table is empty whenever no Memoize is missing.
var claims = struct {
	sync.Mutex
	m map[claimKey]chan struct{}
}{m: map[claimKey]chan struct{}{}}

type claimKey struct {
	s Store
	k Key
}

// claim takes key's claim and reports true, or waits until its holder
// releases it and reports false.
func claim(s Store, k Key) bool {
	ck := claimKey{s, k}
	claims.Lock()
	ch, held := claims.m[ck]
	if !held {
		claims.m[ck] = nil
		claims.Unlock()
		return true
	}
	if ch == nil {
		ch = make(chan struct{})
		claims.m[ck] = ch
	}
	claims.Unlock()
	<-ch
	return false
}

// release drops key's claim and wakes its waiters.
func release(s Store, k Key) {
	ck := claimKey{s, k}
	claims.Lock()
	if ch := claims.m[ck]; ch != nil {
		close(ch)
	}
	delete(claims.m, ck)
	claims.Unlock()
}
