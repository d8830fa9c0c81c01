// Package ra implements the SGX SDK remote-attestation key exchange: the
// msg0–msg4 protocol run between an attesting enclave and a challenging
// service provider (the paper's Verification Manager). A successful run
// yields attestation evidence (an EPID quote channel-bound to the key
// exchange) and shared session keys (SK, MK) under which credentials are
// provisioned — the mbedtls-SGX secure-channel role in the paper's
// implementation is played by internal/secchan keyed from this exchange.
//
// Structure follows the SDK protocol: ECDH on P-256, a key-derivation key
// from the shared secret, and SMK/SK/MK/VK subkeys. The SDK's AES-CMAC is
// replaced by HMAC-SHA256, which the standard library provides; message
// layouts and verification order are preserved.
package ra

import (
	"crypto/hmac"
	"crypto/sha256"
)

// Key sizes.
const (
	// SessionKeySize is the size of SK and MK.
	SessionKeySize = 16
)

// sessionKeys holds every subkey derived from one key exchange.
type sessionKeys struct {
	// smk authenticates handshake messages (msg2, msg3).
	smk [32]byte
	// sk protects provisioned payloads (secure-channel encryption key).
	sk [SessionKeySize]byte
	// mk authenticates post-handshake messages (msg4).
	mk [32]byte
	// vk binds the quote to the handshake via report data.
	vk [32]byte
}

// deriveKeys computes the SDK's key ladder from the ECDH shared secret.
func deriveKeys(sharedSecret []byte) sessionKeys {
	// KDK = MAC(0^32, little-endian(gab.x)); here MAC = HMAC-SHA256.
	var zero [32]byte
	kdkMAC := hmac.New(sha256.New, zero[:])
	kdkMAC.Write(sharedSecret)
	kdk := kdkMAC.Sum(nil)

	derive := func(label string) [32]byte {
		m := hmac.New(sha256.New, kdk)
		// SDK format: 0x01 ‖ label ‖ 0x00 ‖ keylen(0x80) ‖ 0x00.
		m.Write([]byte{0x01})
		m.Write([]byte(label))
		m.Write([]byte{0x00, 0x80, 0x00})
		var out [32]byte
		copy(out[:], m.Sum(nil))
		return out
	}

	var keys sessionKeys
	keys.smk = derive("SMK")
	sk := derive("SK")
	copy(keys.sk[:], sk[:SessionKeySize])
	keys.mk = derive("MK")
	keys.vk = derive("VK")
	return keys
}

// mac computes the protocol MAC (HMAC-SHA256 in place of AES-CMAC).
func mac(key [32]byte, data []byte) [32]byte {
	m := hmac.New(sha256.New, key[:])
	m.Write(data)
	var out [32]byte
	copy(out[:], m.Sum(nil))
	return out
}

func macEqual(a, b [32]byte) bool { return hmac.Equal(a[:], b[:]) }

// reportDataFor computes the quote's channel binding:
// SHA-256(Ga ‖ Gb ‖ VK), zero-padded to 64 bytes by the caller.
func reportDataFor(ga, gb []byte, vk [32]byte) [32]byte {
	h := sha256.New()
	h.Write(ga)
	h.Write(gb)
	h.Write(vk[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
