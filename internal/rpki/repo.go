package rpki

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"github.com/netsec-lab/rovista/internal/inet"
)

// Repository is one RIR's published object store: a self-signed trust
// anchor certificate, the CA certificates issued beneath it, and ROAs.
type Repository struct {
	RIR         RIR
	TrustAnchor *Certificate
	Certs       []*Certificate
	ROAs        []*ROA
}

// Authority wraps a Repository together with the private keys needed to
// issue new objects into it. Worlds and tests use it as the "RIR hosted
// portal" through which resource holders register ROAs.
type Authority struct {
	Repo *Repository
	keys map[string]*KeyPair
}

// NewAuthority creates an RIR authority whose trust anchor holds the given
// resources for the given validity window (simulation days).
func NewAuthority(rir RIR, seed int64, resources ResourceSet, notBefore, notAfter int) *Authority {
	subject := fmt.Sprintf("%s-trust-anchor", rir)
	key := NewKeyPair(seed, subject)
	ta := &Certificate{
		Subject:   subject,
		Serial:    1,
		Resources: resources,
		PublicKey: key.Public,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	SignCertificate(ta, subject, key) // self-signed
	return &Authority{
		Repo: &Repository{RIR: rir, TrustAnchor: ta},
		keys: map[string]*KeyPair{subject: key},
	}
}

// IssueCA issues a CA certificate for subject holding res, signed by the
// parent (the trust anchor when parentSubject is empty).
func (a *Authority) IssueCA(subject, parentSubject string, res ResourceSet, notBefore, notAfter int) (*Certificate, error) {
	if parentSubject == "" {
		parentSubject = a.Repo.TrustAnchor.Subject
	}
	parentKey, ok := a.keys[parentSubject]
	if !ok {
		return nil, fmt.Errorf("rpki: unknown parent %q", parentSubject)
	}
	if _, dup := a.keys[subject]; dup {
		return nil, fmt.Errorf("rpki: subject %q already exists", subject)
	}
	key := NewKeyPair(int64(len(a.keys))*7919+int64(a.Repo.RIR), subject)
	cert := &Certificate{
		Subject:   subject,
		Serial:    uint64(len(a.Repo.Certs) + 2),
		Resources: res,
		PublicKey: key.Public,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	SignCertificate(cert, parentSubject, parentKey)
	a.Repo.Certs = append(a.Repo.Certs, cert)
	a.keys[subject] = key
	return cert, nil
}

// IssueROA issues and publishes a ROA signed by caSubject's key.
func (a *Authority) IssueROA(caSubject string, asid inet.ASN, prefixes []ROAPrefix, notBefore, notAfter int) (*ROA, error) {
	key, ok := a.keys[caSubject]
	if !ok {
		return nil, fmt.Errorf("rpki: unknown CA %q", caSubject)
	}
	roa := &ROA{
		ASID:      asid,
		Prefixes:  prefixes,
		NotBefore: notBefore,
		NotAfter:  notAfter,
	}
	SignROA(roa, caSubject, key)
	a.Repo.ROAs = append(a.Repo.ROAs, roa)
	return roa, nil
}

// RevokeROA removes a published ROA (modelling expiry/withdrawal). It
// reports whether the ROA was present.
func (a *Authority) RevokeROA(roa *ROA) bool {
	for i, r := range a.Repo.ROAs {
		if r == roa {
			a.Repo.ROAs = append(a.Repo.ROAs[:i], a.Repo.ROAs[i+1:]...)
			return true
		}
	}
	return false
}

// ValidationError records one object rejected during relying-party
// validation and why.
type ValidationError struct {
	Object string
	Reason string
}

// Error implements error.
func (e ValidationError) Error() string { return fmt.Sprintf("%s: %s", e.Object, e.Reason) }

// RelyingParty fetches and cryptographically validates repository contents,
// producing the VRP set routers consume (the role Routinator plays in the
// paper's measurement loop).
//
// A RelyingParty reused across passes remembers which signatures it has
// already verified (see sigMemo), so a daily re-validation of an unchanged
// repository skips the Ed25519 work; every other check runs on every pass.
// The zero value is ready to use and starts cold. A RelyingParty is not safe
// for concurrent use.
type RelyingParty struct {
	// Day is the simulation day at which validity windows are evaluated.
	Day int

	memo sigMemo
}

// Validate processes the given repositories and returns the resulting VRP
// set plus any per-object validation errors.
func (rp *RelyingParty) Validate(repos []*Repository) (*VRPSet, []ValidationError) {
	rp.memo.begin()
	defer rp.memo.end()
	var errs []ValidationError
	var vrps []VRP
	for _, repo := range repos {
		ta := repo.TrustAnchor
		if ta == nil {
			errs = append(errs, ValidationError{repo.RIR.String(), "missing trust anchor"})
			continue
		}
		if !rp.memo.verify(ta.PublicKey, ta) {
			errs = append(errs, ValidationError{ta.Subject, "trust anchor self-signature invalid"})
			continue
		}
		if !ta.ValidAt(rp.Day) {
			errs = append(errs, ValidationError{ta.Subject, "trust anchor expired"})
			continue
		}
		// Validate CA certificates to a fixpoint so chains of arbitrary
		// depth resolve regardless of publication order.
		valid := map[string]*Certificate{ta.Subject: ta}
		pending := append([]*Certificate(nil), repo.Certs...)
		for progress := true; progress; {
			progress = false
			var next []*Certificate
			for _, c := range pending {
				issuer, ok := valid[c.IssuerSubject]
				if !ok {
					next = append(next, c)
					continue
				}
				progress = true
				switch {
				case !rp.memo.verify(issuer.PublicKey, c):
					errs = append(errs, ValidationError{c.Subject, "bad signature"})
				case !c.ValidAt(rp.Day):
					errs = append(errs, ValidationError{c.Subject, "outside validity window"})
				case !issuer.Resources.ContainsAll(c.Resources):
					errs = append(errs, ValidationError{c.Subject, "resources exceed issuer (RFC 6487)"})
				default:
					valid[c.Subject] = c
				}
			}
			pending = next
		}
		for _, c := range pending {
			errs = append(errs, ValidationError{c.Subject, "issuer not found or invalid"})
		}
		// Validate ROAs against their (validated) signing CA.
		for _, roa := range repo.ROAs {
			signer, ok := valid[roa.SignerSubject]
			if !ok {
				errs = append(errs, ValidationError{roaName(roa), "signer not validated"})
				continue
			}
			switch {
			case !roa.wellFormed():
				errs = append(errs, ValidationError{roaName(roa), "malformed (RFC 6482)"})
			case !rp.memo.verify(signer.PublicKey, roa):
				errs = append(errs, ValidationError{roaName(roa), "bad signature"})
			case !roa.ValidAt(rp.Day):
				errs = append(errs, ValidationError{roaName(roa), "outside validity window"})
			case !signer.Resources.ContainsAll(roa.resources()):
				errs = append(errs, ValidationError{roaName(roa), "prefixes exceed signer resources"})
			default:
				for _, p := range roa.Prefixes {
					vrps = append(vrps, VRP{ASN: roa.ASID, Prefix: p.Prefix.Masked(), MaxLength: p.MaxLength})
				}
			}
		}
	}
	return NewVRPSet(vrps), errs
}

func roaName(r *ROA) string {
	if len(r.Prefixes) > 0 {
		return fmt.Sprintf("ROA(%v->%v)", r.Prefixes[0].Prefix, r.ASID)
	}
	return fmt.Sprintf("ROA(empty->%v)", r.ASID)
}

// signedObject is an RPKI object carrying an Ed25519 signature over its
// to-be-signed encoding.
type signedObject interface {
	appendTBS(b []byte) []byte
	signature() []byte
}

func verify(pub, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// sigMemo remembers the outcome of Ed25519 verifications across Validate
// passes. Only that outcome is memoized: verify is a pure function of its
// bytes, so an entry is keyed on exactly those bytes — the issuer public
// key, the signature and the object's to-be-signed encoding, each of the
// first two length-prefixed — and never on an object's identity, subject
// or serial. A re-issued or tampered object therefore misses and is
// verified afresh. Each pass keeps only the entries it used, so the memo
// tracks the live repository and revoked objects fall out.
type sigMemo struct {
	seen map[string]*sigEntry
	pass uint64
	key  []byte // scratch buffer for the lookup key
}

type sigEntry struct {
	ok   bool
	pass uint64 // the last pass that used the entry
}

// keyOf builds obj's memo key under pub into the scratch buffer and returns
// it along with the to-be-signed encoding, a suffix of the key.
func (m *sigMemo) keyOf(pub []byte, obj signedObject) (key, tbs []byte) {
	sig := obj.signature()
	k := binary.AppendUvarint(m.key[:0], uint64(len(pub)))
	k = append(k, pub...)
	k = binary.AppendUvarint(k, uint64(len(sig)))
	k = append(k, sig...)
	head := len(k)
	m.key = obj.appendTBS(k)
	return m.key, m.key[head:]
}

// verify reports whether obj's signature verifies under pub, consulting
// the memo first.
func (m *sigMemo) verify(pub []byte, obj signedObject) bool {
	key, tbs := m.keyOf(pub, obj)
	if e := m.seen[string(key)]; e != nil {
		e.pass = m.pass
		return e.ok
	}
	ok := verify(pub, tbs, obj.signature())
	if m.seen == nil {
		m.seen = make(map[string]*sigEntry)
	}
	m.seen[string(key)] = &sigEntry{ok: ok, pass: m.pass}
	return ok
}

func (m *sigMemo) begin() { m.pass++ }

// end drops every entry the finished pass did not use.
func (m *sigMemo) end() {
	for k, e := range m.seen {
		if e.pass != m.pass {
			delete(m.seen, k)
		}
	}
}
