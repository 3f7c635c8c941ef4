package backup

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Archive confidentiality (paper section 2.2.1): each archive is
// encrypted under a fresh symmetric session key before encoding;
// session keys are wrapped under the owner's public key inside the
// master block, so possession of the private key is necessary and
// sufficient to restore.
//
// The construction is AES-256-CTR with HMAC-SHA256 tags
// (encrypt-then-MAC); the session key is split into independent
// encryption and MAC subkeys. Seal and Open put one tag over the whole
// of what they are given, which is also how a version 1 archive is
// sealed; an archive written today carries one tag per stripe (see
// stripe.go), so that it can be opened a stripe at a time.

// SessionKeySize is the session key length in bytes.
const SessionKeySize = 32

const (
	ivSize  = aes.BlockSize
	tagSize = sha256.Size
)

// Seal's layout: iv || ciphertext || tag.
const sealOverhead = ivSize + tagSize

// ErrDecrypt reports an authentication failure (wrong key or tampered
// ciphertext).
var ErrDecrypt = errors.New("backup: decryption failed (wrong key or corrupted data)")

// NewSessionKey draws a fresh random session key.
func NewSessionKey() ([]byte, error) {
	key := make([]byte, SessionKeySize)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("backup: session key: %w", err)
	}
	return key, nil
}

func subKeys(key []byte) (encKey, macKey []byte) {
	he := hmac.New(sha256.New, key)
	he.Write([]byte("enc"))
	hm := hmac.New(sha256.New, key)
	hm.Write([]byte("mac"))
	return he.Sum(nil), hm.Sum(nil)
}

// sessionCipher returns what a session key stands for: the block cipher
// under its encryption subkey, and its MAC subkey.
func sessionCipher(key []byte) (cipher.Block, []byte, error) {
	if len(key) != SessionKeySize {
		return nil, nil, fmt.Errorf("backup: session key must be %d bytes, got %d", SessionKeySize, len(key))
	}
	encKey, macKey := subKeys(key)
	block, err := aes.NewCipher(encKey)
	return block, macKey, err
}

func newIV() ([]byte, error) {
	iv := make([]byte, ivSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("backup: iv: %w", err)
	}
	return iv, nil
}

// Seal encrypts-and-authenticates plaintext under the session key.
func Seal(key, plaintext []byte) ([]byte, error) {
	iv, err := newIV()
	if err != nil {
		return nil, err
	}
	return seal(key, iv, plaintext)
}

func seal(key, iv, plaintext []byte) ([]byte, error) {
	block, macKey, err := sessionCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, sealOverhead+len(plaintext))
	body := out[:ivSize+len(plaintext)]
	copy(body, iv)
	cipher.NewCTR(block, iv).XORKeyStream(body[ivSize:], plaintext)
	mac := hmac.New(sha256.New, macKey)
	mac.Write(body)
	mac.Sum(body) // the tag, into the rest of out
	return out, nil
}

// Open verifies and decrypts a Seal output.
func Open(key, sealed []byte) ([]byte, error) { return open(key, sealed, false) }

// open is Open, decrypting into a buffer of its own or, inPlace, into
// the ciphertext's own bytes, sealed[ivSize:len(sealed)-tagSize], which
// it returns. Nothing is written before the tag has verified.
func open(key, sealed []byte, inPlace bool) ([]byte, error) {
	block, macKey, err := sessionCipher(key)
	if err != nil {
		return nil, err
	}
	if len(sealed) < sealOverhead {
		return nil, ErrDecrypt
	}
	body := sealed[:len(sealed)-tagSize]
	tag := sealed[len(sealed)-tagSize:]
	mac := hmac.New(sha256.New, macKey)
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, ErrDecrypt
	}
	plaintext := body[ivSize:]
	if !inPlace {
		plaintext = make([]byte, len(body)-ivSize)
	}
	cipher.NewCTR(block, body[:ivSize]).XORKeyStream(plaintext, body[ivSize:])
	return plaintext, nil
}

// Identity is an owner key pair. The public key wraps session keys in
// the master block; the private key is the single secret a user needs
// to restore everything.
type Identity struct {
	Private *rsa.PrivateKey
}

// NewIdentity generates a fresh RSA key pair (2048 bits: comfortably
// beyond the paper's 2009 setting).
func NewIdentity() (*Identity, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, fmt.Errorf("backup: identity: %w", err)
	}
	return &Identity{Private: key}, nil
}

// Public returns the wrapping key.
func (id *Identity) Public() *rsa.PublicKey { return &id.Private.PublicKey }

// WrapKey encrypts a session key under the owner's public key
// (RSA-OAEP/SHA-256).
func WrapKey(pub *rsa.PublicKey, sessionKey []byte) ([]byte, error) {
	out, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, sessionKey, []byte("p2pbackup session key"))
	if err != nil {
		return nil, fmt.Errorf("backup: wrap key: %w", err)
	}
	return out, nil
}

// UnwrapKey recovers a session key with the private key.
func UnwrapKey(id *Identity, wrapped []byte) ([]byte, error) {
	key, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, id.Private, wrapped, []byte("p2pbackup session key"))
	if err != nil {
		return nil, fmt.Errorf("backup: unwrap key: %w", err)
	}
	return key, nil
}
