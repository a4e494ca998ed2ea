package rpki

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/netsec-lab/rovista/internal/inet"
	"github.com/netsec-lab/rovista/internal/rib"
)

// VRP is a Validated ROA Payload: the (ASN, prefix, max length) tuple the
// relying party hands to routers.
type VRP struct {
	ASN       inet.ASN
	Prefix    netip.Prefix
	MaxLength int
}

// String implements fmt.Stringer.
func (v VRP) String() string {
	return fmt.Sprintf("%v-%d => %v", v.Prefix, v.MaxLength, v.ASN)
}

// Validity is the RFC 6811 route-origin validation outcome.
type Validity uint8

// RFC 6811 validation states.
const (
	// NotFound: no VRP covers the announced prefix.
	NotFound Validity = iota
	// Valid: some covering VRP matches both origin and length constraint.
	Valid
	// Invalid: covered by at least one VRP but matched by none.
	Invalid
)

// String implements fmt.Stringer.
func (v Validity) String() string {
	switch v {
	case NotFound:
		return "not-found"
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("Validity(%d)", uint8(v))
	}
}

// VRPSet indexes VRPs for origin validation. Lookups use a prefix trie so
// covering checks are O(prefix length).
type VRPSet struct {
	trie *rib.Trie[[]VRP]
	all  []VRP
}

// NewVRPSet builds an index over the given VRPs.
func NewVRPSet(vrps []VRP) *VRPSet {
	s := &VRPSet{trie: rib.NewTrie[[]VRP]()}
	for _, v := range vrps {
		s.add(v)
	}
	return s
}

func (s *VRPSet) add(v VRP) {
	v.Prefix = v.Prefix.Masked()
	existing, _ := s.trie.Get(v.Prefix)
	for _, e := range existing {
		if e == v {
			return // dedupe
		}
	}
	s.trie.Insert(v.Prefix, append(existing, v))
	s.all = append(s.all, v)
}

// Len returns the number of VRPs in the set.
func (s *VRPSet) Len() int { return len(s.all) }

// All returns the VRPs in deterministic order.
func (s *VRPSet) All() []VRP {
	out := append([]VRP(nil), s.all...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix != out[j].Prefix {
			return out[i].Prefix.String() < out[j].Prefix.String()
		}
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return out[i].MaxLength < out[j].MaxLength
	})
	return out
}

// Validate implements RFC 6811 origin validation for an announcement of
// prefix p originated by origin. It runs at BGP import for every
// announcement a validating AS hears, so it walks the trie's covering path
// in place and allocates nothing.
func (s *VRPSet) Validate(p netip.Prefix, origin inet.ASN) Validity {
	out := NotFound
	s.trie.VisitCovering(p, func(_ int, vs []VRP) bool {
		for _, v := range vs {
			if v.ASN == origin && p.Bits() <= v.MaxLength {
				out = Valid
				return false
			}
			out = Invalid
		}
		return true
	})
	return out
}

// CoversPrefix reports whether any VRP covers p (i.e. validation would not
// return NotFound).
func (s *VRPSet) CoversPrefix(p netip.Prefix) bool {
	covered := false
	s.trie.VisitCovering(p, func(_ int, vs []VRP) bool {
		covered = len(vs) > 0
		return !covered
	})
	return covered
}
