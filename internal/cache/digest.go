package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest returns the hex SHA-256 over the parts — the digest half of a
// "<kind>:<digest>" key. Each part is length-prefixed so concatenation
// ambiguity cannot collide keys ("ab","c" vs "a","bc").
func Digest(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}
