package zone

import (
	"bytes"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/dnswire"
)

// sidecarZone builds a small synthesized root zone for sidecar tests.
func sidecarZone() *Zone {
	cfg := DefaultRootConfig()
	cfg.TLDCount = 12
	return SynthesizeRoot(cfg)
}

// TestCanonicalWireMatchesFreshEncode pins the cache's ground truth: every
// cached canonical form must equal a from-scratch canonical encode.
func TestCanonicalWireMatchesFreshEncode(t *testing.T) {
	z := sidecarZone()
	for i, rr := range z.Records {
		want := dnswire.AppendCanonicalRR(nil, rr, rr.TTL)
		if got := z.CanonicalWire(i); !bytes.Equal(got, want) {
			t.Fatalf("record %d (%s): cached wire differs from fresh encode", i, rr)
		}
	}
}

// TestCanonicalOrderMatchesStableSort checks the index permutation against
// the reference comparator used before the sidecar existed.
func TestCanonicalOrderMatchesStableSort(t *testing.T) {
	z := sidecarZone()
	want := make([]int, len(z.Records))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool {
		return dnswire.CanonicalRRLess(z.Records[want[a]], z.Records[want[b]])
	})
	got := z.CanonicalOrder()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestCanonicalizePreservesWires verifies the permuting sort keeps record ↔
// cached-wire correspondence intact.
func TestCanonicalizePreservesWires(t *testing.T) {
	z := sidecarZone()
	z.CanonicalOrder() // warm the sidecar before the sort
	z.Canonicalize()
	for i, rr := range z.Records {
		want := dnswire.AppendCanonicalRR(nil, rr, rr.TTL)
		if !bytes.Equal(z.CanonicalWire(i), want) {
			t.Fatalf("after Canonicalize, record %d (%s) has a stale cached wire", i, rr)
		}
	}
	order := z.CanonicalOrder()
	for i := range order {
		if order[i] != i {
			t.Fatalf("after Canonicalize, order[%d] = %d, want identity", i, order[i])
		}
	}
}

// TestMutateRecordRefreshesSidecar flips a byte through MutateRecord and
// checks the touched record's wire and the zone-wide order both update.
func TestMutateRecordRefreshesSidecar(t *testing.T) {
	z := sidecarZone().Canonicalize()
	i := len(z.Records) / 2
	old := append([]byte(nil), z.CanonicalWire(i)...)
	rr := z.Records[i]
	newName := dnswire.MustName("zzzz-mutated." + string(rr.Name))
	z.MutateRecord(i, func(rr *dnswire.RR) { rr.Name = newName })
	if bytes.Equal(z.CanonicalWire(i), old) {
		t.Fatal("cached wire unchanged after mutation")
	}
	if want := dnswire.AppendCanonicalRR(nil, z.Records[i], z.Records[i].TTL); !bytes.Equal(z.CanonicalWire(i), want) {
		t.Fatal("cached wire does not match mutated record")
	}
	// The renamed record must resort to its new canonical position.
	order := z.CanonicalOrder()
	pos := -1
	for p, idx := range order {
		if idx == i {
			pos = p
		}
	}
	if pos < 0 {
		t.Fatal("mutated record missing from canonical order")
	}
	if pos == 0 {
		t.Fatal("mutated record did not move despite new owner name")
	}
}

// TestCloneCOWIsolation mutates a copy-on-write clone and checks the parent's
// records and cached wires are untouched, while the clone sees its own edit.
func TestCloneCOWIsolation(t *testing.T) {
	parent := sidecarZone().Canonicalize()
	i := 3
	parentWire := append([]byte(nil), parent.CanonicalWire(i)...)
	parentRR := parent.Records[i].String()

	clone := parent.CloneCOW()
	clone.MutateRecord(i, func(rr *dnswire.RR) { rr.TTL += 9999 })

	if parent.Records[i].String() != parentRR {
		t.Fatal("parent record changed through clone mutation")
	}
	if !bytes.Equal(parent.CanonicalWire(i), parentWire) {
		t.Fatal("parent cached wire changed through clone mutation")
	}
	if bytes.Equal(clone.CanonicalWire(i), parentWire) {
		t.Fatal("clone cached wire did not update after mutation")
	}
	// Untouched records still share the parent's cached encodings.
	for j := range parent.Records {
		if j == i {
			continue
		}
		if &parent.CanonicalWire(j)[0] != &clone.CanonicalWire(j)[0] {
			t.Fatalf("record %d: clone re-encoded an untouched record", j)
		}
	}
}

// TestSigVerdictClearedOnMutation checks verdict invalidation: flipping a
// record clears cached verdicts for RRSIGs covering that record's RRset and
// for the record itself, but keeps unrelated verdicts.
func TestSigVerdictClearedOnMutation(t *testing.T) {
	z := sidecarZone()
	// Fake RRSIG layout: records[0] is covered by a sig at index sigIdx.
	target := 0
	targetName, targetType := z.Records[target].Name, z.Records[target].Type()
	sigIdx := -1
	other := -1
	for i, rr := range z.Records {
		if i == target {
			continue
		}
		if rr.Name.Canonical() != targetName.Canonical() && other < 0 {
			other = i
		}
	}
	z.Add(dnswire.RR{
		Name: targetName, Class: dnswire.ClassINET, TTL: 1,
		Data: dnswire.RRSIGRecord{TypeCovered: targetType, SignerName: z.Apex},
	})
	sigIdx = len(z.Records) - 1
	z.SetSigVerdict(sigIdx, true)
	if other >= 0 {
		z.SetSigVerdict(other, true)
	}
	z.MutateRecord(target, func(rr *dnswire.RR) { rr.TTL++ })
	if z.SigVerdict(sigIdx) {
		t.Error("verdict for covering RRSIG survived mutation of its RRset")
	}
	if other >= 0 && !z.SigVerdict(other) {
		t.Error("unrelated verdict was cleared")
	}
}

// TestOwnerIndexFollowsMutation pins the index's invalidation: a lookup made
// before each mutation API must not leave the next lookup answering from the
// old records, and a copy-on-write clone's mutation must not reach the
// parent's index.
func TestOwnerIndexFollowsMutation(t *testing.T) {
	z := sidecarZone()
	host := dnswire.MustName("ns1.com.")
	if n := len(z.Lookup(host, dnswire.TypeA)); n != 1 {
		t.Fatalf("ns1.com. A = %d records, want 1", n)
	}

	// Add: the new owner and the new record at an old owner both appear.
	added := dnswire.MustName("new-owner.com.")
	z.Add(
		dnswire.RR{Name: added, Class: dnswire.ClassINET, TTL: 1, Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}},
		dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 2, Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}},
	)
	if len(z.Lookup(added, dnswire.TypeA)) != 1 || len(z.Lookup(host, dnswire.TypeA)) != 2 {
		t.Fatal("lookup after Add answered from the stale index")
	}

	// Canonicalize permutes Records; spans must follow.
	z.Canonicalize()
	for _, rr := range z.Lookup(host, dnswire.TypeANY) {
		if rr.Name != host {
			t.Fatalf("after Canonicalize, ns1.com. lookup returned %s", rr)
		}
	}

	// A clone renames one record; the parent keeps its answer.
	clone := z.CloneCOW()
	moved := dnswire.MustName("moved.example.")
	for i, rr := range clone.Records {
		if rr.Name == added {
			clone.MutateRecord(i, func(rr *dnswire.RR) { rr.Name = moved })
		}
	}
	if len(clone.Lookup(added, dnswire.TypeA)) != 0 || len(clone.Lookup(moved, dnswire.TypeA)) != 1 {
		t.Fatal("clone lookup after MutateRecord answered from the stale index")
	}
	if len(z.Lookup(added, dnswire.TypeA)) != 1 || len(z.Lookup(moved, dnswire.TypeA)) != 0 {
		t.Fatal("clone's MutateRecord reached the parent's index")
	}
}

// TestOwnerIndexInsertionOrder checks that on a zone never canonicalized,
// a lookup still returns an owner's records in insertion order, though the
// canonical order (by RDATA here) differs.
func TestOwnerIndexInsertionOrder(t *testing.T) {
	z := New(dnswire.Root)
	owner := dnswire.MustName("example.")
	for _, ttl := range []uint32{5, 1, 4, 2, 3} {
		z.Add(dnswire.RR{Name: owner, Class: dnswire.ClassINET, TTL: ttl, Data: dnswire.TXTRecord{Strings: []string{string(rune('a' + ttl))}}})
		z.Add(dnswire.RR{Name: dnswire.MustName("a.example."), Class: dnswire.ClassINET, TTL: ttl, Data: dnswire.ARecord{Addr: netip.MustParseAddr("192.0.2.1")}})
	}
	var got []uint32
	for _, rr := range z.Lookup(dnswire.MustName("EXAMPLE."), dnswire.TypeANY) {
		got = append(got, rr.TTL)
	}
	if want := []uint32{5, 1, 4, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("lookup order = %v, want insertion order %v", got, want)
	}
}

// TestCoveringNSECChainCheck checks the chain check behind the covering-NSEC
// shortcut: the binary search on an intact chain and the scan on a broken
// one both return the NSEC the scan in record order would.
func TestCoveringNSECChainCheck(t *testing.T) {
	nsec := func(owner, next string) dnswire.RR {
		return dnswire.RR{Name: dnswire.MustName(owner), Class: dnswire.ClassINET, TTL: 1,
			Data: dnswire.NSECRecord{NextName: dnswire.MustName(next), Types: []dnswire.Type{dnswire.TypeNS}}}
	}
	intact := New(dnswire.Root)
	intact.Add(nsec(".", "b."), nsec("b.", "d."), nsec("d.", "."))
	// c.'s NSEC reaches past d.: both it and b.'s cover "bb.".
	broken := New(dnswire.Root)
	broken.Add(nsec(".", "c."), nsec("c.", "."), nsec("b.", "d."))
	cases := []struct {
		z          *Zone
		name, want string
	}{
		{intact, "a.", "."},
		{intact, "C.", "b."},
		{intact, "z.", "d."},
		{intact, "x.b.", "b."},
		{broken, "bb.", "."},
		{broken, "cc.", "c."},
	}
	for _, c := range cases {
		r := c.z.Reader()
		rr, ok := r.CoveringNSEC(dnswire.MustName(c.name))
		if !ok || rr.Name != dnswire.MustName(c.want) {
			t.Errorf("CoveringNSEC(%s) = %v (ok=%v), want the NSEC at %s", c.name, rr, ok, c.want)
		}
	}
}

// TestOwnerIndexConcurrentBuild has several goroutines make the first
// lookups of a fresh zone at once, as concurrent validators of one cached
// zone version do: the index must be built once and every lookup must see
// it whole (run under -race).
func TestOwnerIndexConcurrentBuild(t *testing.T) {
	z := sidecarZone()
	want := len(sidecarZone().Lookup(dnswire.MustName("com."), dnswire.TypeNS))
	var wg sync.WaitGroup
	got := make([]int, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = len(z.Lookup(dnswire.MustName("com."), dnswire.TypeNS))
		}()
	}
	wg.Wait()
	for g, n := range got {
		if n != want || n == 0 {
			t.Errorf("goroutine %d: %d NS records at com., want %d", g, n, want)
		}
	}
}
