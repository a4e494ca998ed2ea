package rpki

import (
	"encoding/binary"
	"net/netip"

	"github.com/netsec-lab/rovista/internal/inet"
)

// ROAPrefix is one prefix entry inside a ROA: the prefix itself plus the
// maximum length the authorized AS may announce (RFC 6482).
type ROAPrefix struct {
	Prefix    netip.Prefix
	MaxLength int
}

// ROA is a Route Origin Authorization: it authorizes ASID to originate the
// listed prefixes. It is signed by the end-entity key of the issuing CA
// certificate, which in this simplified profile is the CA certificate named
// by SignerSubject.
type ROA struct {
	ASID     inet.ASN
	Prefixes []ROAPrefix

	// Validity window in simulation days (inclusive).
	NotBefore, NotAfter int

	SignerSubject string
	Signature     []byte
}

// appendTBS appends the deterministic "to-be-signed" byte encoding to b.
func (r *ROA) appendTBS(b []byte) []byte {
	b = appendStr(b, "ROA")
	b = binary.BigEndian.AppendUint32(b, uint32(r.ASID))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.NotBefore)))
	b = binary.BigEndian.AppendUint64(b, uint64(int64(r.NotAfter)))
	b = appendStr(b, r.SignerSubject)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Prefixes)))
	for _, p := range r.Prefixes {
		b = append(appendPrefix(b, p.Prefix), byte(p.MaxLength))
	}
	return b
}

func (r *ROA) signature() []byte { return r.Signature }

// SignROA signs the ROA with the CA's key.
func SignROA(r *ROA, signerSubject string, key *KeyPair) {
	r.SignerSubject = signerSubject
	r.Signature = key.Sign(r.appendTBS(nil))
}

// VerifySignature checks the ROA signature against the signer's public key.
func (r *ROA) VerifySignature(pub []byte) bool {
	return verify(pub, r.appendTBS(nil), r.Signature)
}

// ValidAt reports whether day falls inside the ROA's validity window.
func (r *ROA) ValidAt(day int) bool {
	return day >= r.NotBefore && day <= r.NotAfter
}

// resources returns the ResourceSet a signer must hold to issue this ROA.
func (r *ROA) resources() ResourceSet {
	var rs ResourceSet
	for _, p := range r.Prefixes {
		rs.Prefixes = append(rs.Prefixes, p.Prefix)
	}
	return rs
}

// wellFormed checks the RFC 6482 structural constraints.
func (r *ROA) wellFormed() bool {
	if len(r.Prefixes) == 0 {
		return false
	}
	for _, p := range r.Prefixes {
		if !p.Prefix.IsValid() || !p.Prefix.Addr().Is4() {
			return false
		}
		if p.MaxLength < p.Prefix.Bits() || p.MaxLength > 32 {
			return false
		}
	}
	return true
}
