package runpack

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Algo names a signature algorithm carried in a runpack signature.
type Algo string

const (
	// AlgoHMAC is HMAC-SHA256 over the canonical manifest bytes: symmetric,
	// verifiable only by holders of the shared secret. The right choice for
	// CI gates where packer and verifier are the same trust domain.
	AlgoHMAC Algo = "hmac-sha256"
	// AlgoEd25519 is an ed25519 signature over the canonical manifest
	// bytes: the verifier needs only the public key, which travels inside
	// the signature. The choice for served runpacks — a client can check
	// what the server computed without sharing any secret with it.
	AlgoEd25519 Algo = "ed25519"
)

// Key is a signing key: an HMAC secret or an ed25519 seed. The zero value
// is invalid; construct with NewHMACKey / NewEd25519Key / DevKey.
type Key struct {
	algo   Algo
	secret []byte // HMAC secret, or the 32-byte ed25519 private seed
}

// NewHMACKey returns an HMAC-SHA256 signing key over secret.
func NewHMACKey(secret []byte) Key {
	return Key{algo: AlgoHMAC, secret: append([]byte(nil), secret...)}
}

// NewEd25519Key derives an ed25519 signing key from seed material of any
// length: the material is hashed to the 32-byte private seed, so a caller
// can feed a passphrase, a random blob, or a deterministic stream.
func NewEd25519Key(material []byte) Key {
	sum := sha256.Sum256(append([]byte("runpack/ed25519-seed/v1|"), material...))
	return Key{algo: AlgoEd25519, secret: sum[:]}
}

// DevKey is the documented development/CI key: an HMAC key over a fixed
// secret. It provides integrity (a flipped byte is detected) but no
// authenticity against an adversary who reads this source — production
// deployments supply their own key material.
func DevKey() Key { return NewHMACKey([]byte("runpack-dev-key/v1")) }

// Zero reports whether the key is unset.
func (k Key) Zero() bool { return k.algo == "" }

// Public returns the hex-encoded ed25519 public key ("" for HMAC keys).
func (k Key) Public() string {
	if k.algo != AlgoEd25519 {
		return ""
	}
	priv := ed25519.NewKeyFromSeed(k.secret)
	return hex.EncodeToString(priv.Public().(ed25519.PublicKey))
}

// Signature is the detached signature stored beside (and in bundles,
// inside) a runpack: the manifest digest it covers, the algorithm, the
// signature bytes, and for ed25519 the public key needed to verify.
type Signature struct {
	// ID is the runpack ID: hex SHA-256 of the canonical manifest bytes.
	ID string `json:"id"`
	// Algo is the signing algorithm.
	Algo Algo `json:"algo"`
	// Sig is the hex-encoded signature over the canonical manifest bytes.
	Sig string `json:"sig"`
	// PubKey is the hex ed25519 public key (empty for HMAC).
	PubKey string `json:"pubkey,omitempty"`
}

// Sign produces the signature over the canonical manifest bytes raw, whose
// hex SHA-256 is id.
func (k Key) Sign(id string, raw []byte) (Signature, error) {
	switch k.algo {
	case AlgoHMAC:
		mac := hmac.New(sha256.New, k.secret)
		mac.Write(raw)
		return Signature{ID: id, Algo: AlgoHMAC, Sig: hex.EncodeToString(mac.Sum(nil))}, nil
	case AlgoEd25519:
		priv := ed25519.NewKeyFromSeed(k.secret)
		sig := ed25519.Sign(priv, raw)
		return Signature{ID: id, Algo: AlgoEd25519, Sig: hex.EncodeToString(sig),
			PubKey: hex.EncodeToString(priv.Public().(ed25519.PublicKey))}, nil
	default:
		return Signature{}, fmt.Errorf("runpack: signing with unset key")
	}
}

// VerifyWith checks the signature over raw using the full key (the HMAC
// secret, or the ed25519 private key — which also pins the expected public
// key, rejecting a signature re-signed under a different keypair).
func (s Signature) VerifyWith(k Key, raw []byte) error {
	if s.Algo != k.algo {
		return fmt.Errorf("%w: signature algo %q, key algo %q", ErrSignature, s.Algo, k.algo)
	}
	switch k.algo {
	case AlgoHMAC:
		mac := hmac.New(sha256.New, k.secret)
		mac.Write(raw)
		want := mac.Sum(nil)
		got, err := hex.DecodeString(s.Sig)
		if err != nil || !hmac.Equal(want, got) {
			return fmt.Errorf("%w: hmac-sha256 mismatch", ErrSignature)
		}
		return nil
	case AlgoEd25519:
		if s.PubKey != k.Public() {
			return fmt.Errorf("%w: signature public key %s is not the verifying key's", ErrSignature, short(s.PubKey))
		}
		return s.VerifyPublic(k.Public(), raw)
	default:
		return fmt.Errorf("%w: verifying with unset key", ErrSignature)
	}
}

// VerifyPublic checks an ed25519 signature over raw against a trusted hex
// public key — the offline path: a client that fetched a bundle from smsd
// needs only the server's published key, no shared secret.
func (s Signature) VerifyPublic(pubHex string, raw []byte) error {
	if s.Algo != AlgoEd25519 {
		return fmt.Errorf("%w: public-key verification needs ed25519, signature is %q", ErrSignature, s.Algo)
	}
	if s.PubKey != "" && s.PubKey != pubHex {
		return fmt.Errorf("%w: bundle public key %s differs from trusted key %s", ErrSignature, short(s.PubKey), short(pubHex))
	}
	pub, err := hex.DecodeString(pubHex)
	if err != nil || len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: malformed public key %q", ErrSignature, pubHex)
	}
	sig, err := hex.DecodeString(s.Sig)
	if err != nil {
		return fmt.Errorf("%w: malformed signature hex", ErrSignature)
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), raw, sig) {
		return fmt.Errorf("%w: ed25519 verification failed", ErrSignature)
	}
	return nil
}

func short(hexStr string) string {
	if len(hexStr) > 12 {
		return hexStr[:12]
	}
	return hexStr
}
