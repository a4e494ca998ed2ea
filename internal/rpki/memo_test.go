package rpki

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"github.com/netsec-lab/rovista/internal/inet"
)

// memoAuthority publishes nCA CAs (every tenth a child of the previous CA,
// so chains resolve through the fixpoint) with one ROA per CA, validity
// windows staggered over days 0…60, and a few objects that fail each check:
// an over-claiming CA, a malformed ROA, a ROA with a bad signature and a
// ROA beyond its signer's resources.
func memoAuthority(t testing.TB, nCA int) *Authority {
	t.Helper()
	a := NewAuthority(RIPE, 7, ResourceSet{
		Prefixes: []netip.Prefix{pfx("10.0.0.0/8")},
		ASNs:     []ASNRange{{1, 65000}},
	}, 0, 60)
	for i := 0; i < nCA; i++ {
		sub, parent := fmt.Sprintf("ca-%d", i), ""
		p := netip.PrefixFrom(inet.V4(10<<24|uint32(i)<<8), 24)
		if i%10 == 9 {
			parent = fmt.Sprintf("ca-%d", i-1)
			p = netip.PrefixFrom(inet.V4(10<<24|uint32(i-1)<<8), 25)
		}
		nb, na := i%7, 60-i%11
		if _, err := a.IssueCA(sub, parent, ResourceSet{Prefixes: []netip.Prefix{p}}, nb, na); err != nil {
			t.Fatal(err)
		}
		if _, err := a.IssueROA(sub, inet.ASN(64500+i), []ROAPrefix{{p, 25}}, nb+i%5, na-i%3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.IssueCA("greedy", "", ResourceSet{Prefixes: []netip.Prefix{pfx("8.0.0.0/8")}}, 0, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := a.IssueROA("ca-0", 64999, []ROAPrefix{{pfx("10.0.0.0/24"), 8}}, 0, 60); err != nil {
		t.Fatal(err)
	}
	forged, err := a.IssueROA("ca-1", 64998, []ROAPrefix{{pfx("10.0.1.0/24"), 24}}, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	forged.Signature[0] ^= 1
	if _, err := a.IssueROA("ca-2", 64997, []ROAPrefix{{pfx("10.99.0.0/16"), 24}}, 0, 60); err != nil {
		t.Fatal(err)
	}
	return a
}

// memoHolds reports whether the memo has an entry for obj under pub.
func memoHolds(rp *RelyingParty, pub []byte, obj signedObject) bool {
	key, _ := rp.memo.keyOf(pub, obj)
	_, ok := rp.memo.seen[string(key)]
	return ok
}

// TestRelyingPartyReuseMatchesFresh: one relying party reused over every
// day of the timeline, forwards and then backwards, yields exactly the VRPs
// and validation errors a fresh relying party does at each day.
func TestRelyingPartyReuseMatchesFresh(t *testing.T) {
	a := memoAuthority(t, 40)
	repos := []*Repository{a.Repo}
	reused := &RelyingParty{}
	var days []int
	for d := 0; d <= 62; d++ {
		days = append(days, d)
	}
	for d := 62; d >= 0; d -= 3 {
		days = append(days, d)
	}
	for _, d := range days {
		reused.Day = d
		gotV, gotE := reused.Validate(repos)
		wantV, wantE := (&RelyingParty{Day: d}).Validate(repos)
		if !reflect.DeepEqual(gotV.All(), wantV.All()) {
			t.Fatalf("day %d: reused relying party VRPs differ from a fresh one's", d)
		}
		if !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("day %d: reused errors %v, fresh %v", d, gotE, wantE)
		}
	}
}

// TestRelyingPartyMemoRejectsTampering: an object altered after a pass that
// accepted it is rejected on the next pass, and accepted again once
// restored.
func TestRelyingPartyMemoRejectsTampering(t *testing.T) {
	cases := []struct {
		name   string
		object string
		tamper func(a *Authority) (undo func())
	}{
		{"cert resources", "ca-3", func(a *Authority) func() {
			c := a.Repo.Certs[3]
			old := c.Resources
			c.Resources = ResourceSet{Prefixes: []netip.Prefix{pfx("10.0.0.0/16")}} // still within the TA
			return func() { c.Resources = old }
		}},
		{"cert signature", "ca-3", func(a *Authority) func() {
			c := a.Repo.Certs[3]
			c.Signature[5] ^= 0x40
			return func() { c.Signature[5] ^= 0x40 }
		}},
		{"roa prefixes", "ROA(10.0.3.128/25->AS64503)", func(a *Authority) func() {
			r := a.Repo.ROAs[3]
			old := r.Prefixes
			r.Prefixes = []ROAPrefix{{pfx("10.0.3.128/25"), 25}} // still within the signer
			return func() { r.Prefixes = old }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := memoAuthority(t, 10)
			repos := []*Repository{a.Repo}
			rp := &RelyingParty{Day: 20}
			before, errs0 := rp.Validate(repos)
			undo := c.tamper(a)
			_, errs := rp.Validate(repos)
			if !hasError(errs, c.object, "bad signature") {
				t.Fatalf("tampered %s accepted: errors %v", c.object, errs)
			}
			undo()
			after, errs1 := rp.Validate(repos)
			if !reflect.DeepEqual(after.All(), before.All()) || !reflect.DeepEqual(errs1, errs0) {
				t.Fatalf("restored %s: validation differs from before tampering", c.object)
			}
		})
	}
}

func hasError(errs []ValidationError, object, reason string) bool {
	for _, e := range errs {
		if e.Object == object && e.Reason == reason {
			return true
		}
	}
	return false
}

// TestRelyingPartyMemoBounded: the memo holds exactly the signatures the
// last pass checked, so a revoked ROA's entry is gone after the next pass.
func TestRelyingPartyMemoBounded(t *testing.T) {
	a := memoAuthority(t, 10)
	repos := []*Repository{a.Repo}
	rp := &RelyingParty{Day: 20}
	rp.Validate(repos)
	signer := a.Repo.Certs[4]
	roa := a.Repo.ROAs[4]
	if !memoHolds(rp, signer.PublicKey, roa) {
		t.Fatal("memo lacks a validated ROA's entry")
	}
	live := len(rp.memo.seen)
	if !a.RevokeROA(roa) {
		t.Fatal("revoke failed")
	}
	rp.Validate(repos)
	if memoHolds(rp, signer.PublicKey, roa) {
		t.Fatal("memo still holds the revoked ROA's entry")
	}
	if got := len(rp.memo.seen); got != live-1 {
		t.Fatalf("memo holds %d entries after revoking one of %d", got, live)
	}
}

// BenchmarkRelyingPartyValidate times one Validate pass over a 1,000-CA
// repository: cold with a fresh relying party, warm with one reused over
// an unchanged repository.
func BenchmarkRelyingPartyValidate(b *testing.B) {
	a := memoAuthority(b, 1000)
	repos := []*Repository{a.Repo}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			(&RelyingParty{Day: 30}).Validate(repos)
		}
	})
	b.Run("warm", func(b *testing.B) {
		rp := &RelyingParty{Day: 30}
		rp.Validate(repos)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rp.Validate(repos)
		}
	})
}

// TestVRPSetLookupsAllocationFree: origin validation runs at BGP import for
// every announcement a validating AS hears, so it must not allocate.
func TestVRPSetLookupsAllocationFree(t *testing.T) {
	s := NewVRPSet([]VRP{
		{ASN: 100, Prefix: pfx("10.0.0.0/8"), MaxLength: 16},
		{ASN: 200, Prefix: pfx("10.1.0.0/16"), MaxLength: 24},
		{ASN: 300, Prefix: pfx("10.1.0.0/16"), MaxLength: 16},
	})
	cases := []struct {
		p      netip.Prefix
		origin inet.ASN
		want   Validity
	}{
		{pfx("10.1.2.0/24"), 200, Valid},
		{pfx("10.1.2.0/24"), 300, Invalid},
		{pfx("192.0.2.0/24"), 100, NotFound},
	}
	for _, c := range cases {
		var got Validity
		var covers bool
		allocs := testing.AllocsPerRun(100, func() {
			got = s.Validate(c.p, c.origin)
			covers = s.CoversPrefix(c.p)
		})
		if got != c.want || covers != (c.want != NotFound) {
			t.Fatalf("Validate(%v, %v) = %v covers=%v, want %v", c.p, c.origin, got, covers, c.want)
		}
		if allocs != 0 {
			t.Fatalf("Validate/CoversPrefix(%v) allocated %.0f times per run", c.p, allocs)
		}
	}
}
