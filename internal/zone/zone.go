// Package zone models DNS zones: ordered collections of resource records
// with RRset grouping, master-file parsing and printing, canonical ordering,
// and synthesis of a realistic root zone (TLD delegations with glue) for the
// study's authoritative servers.
package zone

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/dnswire"
)

// Zone is a collection of resource records for one apex. Records are kept in
// insertion order; Canonicalize sorts them into RFC 4034 §6 canonical order.
//
// Zones carry a lazily built canonical-form sidecar (see canon.go) caching
// each record's canonical wire form, the canonical ordering, the owner index
// that lookups probe, and signature verdicts. Mutate Records only through
// Add, MutateRecord, or the copy constructors, so the sidecar stays
// coherent.
type Zone struct {
	//rootlint:immutable-after-start
	Apex dnswire.Name
	// Records is frozen before a zone is shared: the campaign builds or
	// clones a zone single-goroutine, then publishes it. The mutation API
	// (Add, Canonicalize, MutateRecord) carries per-site allows below.
	//rootlint:immutable-after-start
	Records []dnswire.RR

	canon atomic.Pointer[canonState]
}

// New returns an empty zone rooted at apex.
func New(apex dnswire.Name) *Zone {
	return &Zone{Apex: apex}
}

// Add appends records to the zone and invalidates the canonical sidecar.
func (z *Zone) Add(rrs ...dnswire.RR) {
	//rootlint:allow lockcheck: documented mutation API; zones are built single-goroutine and frozen before they are shared
	z.Records = append(z.Records, rrs...)
	z.canon.Store(nil)
}

// SOA returns the zone's SOA record. The second return is false when the
// zone has none (an invalid zone; AXFR consumers treat it as an error).
func (z *Zone) SOA() (dnswire.RR, bool) {
	r := z.Reader()
	return r.SOA()
}

// Serial returns the zone's SOA serial, or 0 when the zone has no SOA.
func (z *Zone) Serial() uint32 {
	soa, ok := z.SOA()
	if !ok {
		return 0
	}
	return soa.Data.(dnswire.SOARecord).Serial
}

// Lookup returns all records with the given owner name and type, in
// insertion order. Type dnswire.TypeANY matches every type.
func (z *Zone) Lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	r := z.Reader()
	return r.Lookup(name, typ)
}

// Delegation returns the NS RRset delegating name (see Reader.Delegation).
func (z *Zone) Delegation(name dnswire.Name) []dnswire.RR {
	r := z.Reader()
	return r.Delegation(name)
}

// Glue returns the A and AAAA records for host if present in the zone.
func (z *Zone) Glue(host dnswire.Name) []dnswire.RR {
	r := z.Reader()
	return r.Glue(host)
}

// Reader answers lookups from the zone's owner index (see canon.go) and
// tallies the work they do: each lookup is one probe of the index plus a
// filter over one owner's records. A Reader is a value for one goroutine's
// use, typically one query; the index behind it is shared.
type Reader struct {
	z  *Zone
	ix *ownerIndex
	// Examined counts the records the lookups made through this Reader
	// have looked at: the whole span of every owner found, plus the whole
	// zone when a covering-NSEC search falls back to a scan. It depends
	// only on the zone and the lookups, never on timing.
	Examined int
}

// Reader returns a Reader over z, building the owner index on first use.
func (z *Zone) Reader() Reader {
	return Reader{z: z, ix: z.state().ensureIndex(z)}
}

// owned returns the record indices owned by name and tallies them.
func (r *Reader) owned(name dnswire.Name) []int {
	span := r.ix.find(name)
	r.Examined += len(span)
	return span
}

// Lookup returns all records with the given owner name and type, in
// insertion order. Type dnswire.TypeANY matches every type.
func (r *Reader) Lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	return r.collect(r.owned(name), typ, false)
}

// Signatures returns the RRSIG records at name that cover typ, in insertion
// order.
func (r *Reader) Signatures(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	return r.collect(r.owned(name), typ, true)
}

// collect returns the records in span of type typ (any type for TypeANY)
// or, with sigs, the RRSIGs covering typ, in a slice of exactly their
// number: one allocation per non-empty answer.
func (r *Reader) collect(span []int, typ dnswire.Type, sigs bool) []dnswire.RR {
	match := func(rr dnswire.RR) bool {
		if sigs {
			sig, ok := rr.Data.(dnswire.RRSIGRecord)
			return ok && sig.TypeCovered == typ
		}
		return typ == dnswire.TypeANY || rr.Type() == typ
	}
	n := 0
	for _, i := range span {
		if match(r.z.Records[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]dnswire.RR, 0, n)
	for _, i := range span {
		if rr := r.z.Records[i]; match(rr) {
			out = append(out, rr)
		}
	}
	return out
}

// SOA returns the first SOA record at the apex.
func (r *Reader) SOA() (dnswire.RR, bool) {
	for _, i := range r.owned(r.z.Apex) {
		if rr := r.z.Records[i]; rr.Type() == dnswire.TypeSOA {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// Delegation returns the NS RRset delegating name: the first NS RRset found
// walking up from name toward the apex, excluding the apex itself. It
// implements the referral decision of an authoritative server. The walk
// takes each ancestor as a suffix of name, one index probe per label.
func (r *Reader) Delegation(name dnswire.Name) []dnswire.RR {
	for n := string(name); n != "" && n != "."; {
		if dnswire.CompareCanonical(dnswire.Name(n), r.z.Apex) == 0 {
			break
		}
		if nsset := r.Lookup(dnswire.Name(n), dnswire.TypeNS); len(nsset) > 0 {
			return nsset
		}
		dot := strings.IndexByte(n, '.')
		if dot < 0 {
			break
		}
		n = n[dot+1:]
	}
	return nil
}

// Glue returns the A and then the AAAA records for host if present in the
// zone.
func (r *Reader) Glue(host dnswire.Name) []dnswire.RR {
	span := r.owned(host)
	n := 0
	for _, i := range span {
		if t := r.z.Records[i].Type(); t == dnswire.TypeA || t == dnswire.TypeAAAA {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	glue := make([]dnswire.RR, 0, n)
	for _, typ := range [...]dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
		for _, i := range span {
			if rr := r.z.Records[i]; rr.Type() == typ {
				glue = append(glue, rr)
			}
		}
	}
	return glue
}

// CoveringNSEC returns the NSEC record whose owner/next-name span covers
// name, which must own no records (the NXDOMAIN proof of RFC 4035
// §3.1.3.2). On an intact chain that is the NSEC at the greatest NSEC owner
// canonically below name, wrapping to the last one; when the chain is broken
// (fault-injected zones), it is the first covering NSEC in record order,
// found by a scan.
func (r *Reader) CoveringNSEC(name dnswire.Name) (dnswire.RR, bool) {
	ix := r.ix
	if ix.ring {
		if len(ix.nsec) == 0 {
			return dnswire.RR{}, false
		}
		// Binary search for the last NSEC owner below name.
		lo, hi := 0, len(ix.nsec)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if dnswire.CompareCanonical(ix.owners[ix.nsec[mid]].name, name) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pos := ix.nsec[(lo+len(ix.nsec)-1)%len(ix.nsec)]
		span := ix.span(int(pos))
		r.Examined += len(span)
		for _, i := range span {
			rr := r.z.Records[i]
			if nsec, ok := rr.Data.(dnswire.NSECRecord); ok && NSECCovers(rr.Name, nsec.NextName, name) {
				return rr, true
			}
		}
	}
	r.Examined += len(r.z.Records)
	for _, rr := range r.z.Records {
		if nsec, ok := rr.Data.(dnswire.NSECRecord); ok && NSECCovers(rr.Name, nsec.NextName, name) {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

// NSECCovers reports whether the NSEC span (owner, next) covers name in
// canonical order, handling the chain's wrap-around at the apex.
func NSECCovers(owner, next, name dnswire.Name) bool {
	cmpOwner := dnswire.CompareCanonical(owner, name)
	cmpNext := dnswire.CompareCanonical(name, next)
	if dnswire.CompareCanonical(owner, next) < 0 {
		return cmpOwner < 0 && cmpNext < 0
	}
	// Wrap-around span (last NSEC pointing back to the apex).
	return cmpOwner < 0 || cmpNext < 0
}

// Canonicalize sorts the records into canonical order (owner name, class,
// type, RDATA) and returns z for chaining. The cached canonical wire forms
// survive the sort: the sidecar's permutation is applied to records and
// cache slots together, so a Sign → Digest → AXFR pipeline encodes each
// record exactly once.
func (z *Zone) Canonicalize() *Zone {
	cs := z.state()
	cs.ensureOrder(z)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := len(z.Records)
	recs := make([]dnswire.RR, n)
	wire := make([][]byte, n)
	rd := make([]int, n)
	sig := make([]uint32, n)
	for newI, oldI := range cs.order {
		recs[newI] = z.Records[oldI]
		wire[newI] = cs.wire[oldI]
		rd[newI] = cs.rd[oldI]
		sig[newI] = atomic.LoadUint32(&cs.sigOK[oldI])
	}
	//rootlint:allow lockcheck: documented mutation API; Canonicalize runs before the zone is shared
	z.Records = recs
	//rootlint:allow lockcheck: sigOK is replaced wholesale under mu while no concurrent reader exists (pre-publication, same contract as Records)
	cs.wire, cs.rd, cs.sigOK = wire, rd, sig
	// Records are now in canonical order: the permutation becomes the
	// identity and groups become contiguous runs. Build fresh slices — the
	// old ones may be shared with clones.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	groups := make([][]int, len(cs.groups))
	p := 0
	for gi, g := range cs.groups {
		groups[gi] = order[p : p+len(g) : p+len(g)]
		p += len(g)
	}
	cs.order, cs.groups = order, groups
	cs.index.Store(nil)
	return z
}

// Clone returns a deep-enough copy: the record slice is copied; RData values
// are immutable by convention and shared.
func (z *Zone) Clone() *Zone {
	return &Zone{Apex: z.Apex, Records: append([]dnswire.RR(nil), z.Records...)}
}

// WithoutType returns a copy of z with all records of type t removed.
func (z *Zone) WithoutType(t dnswire.Type) *Zone {
	out := New(z.Apex)
	for _, rr := range z.Records {
		if rr.Type() != t {
			out.Add(rr)
		}
	}
	return out
}

// BumpSerial returns a copy of z with the SOA serial replaced.
func (z *Zone) BumpSerial(serial uint32) *Zone {
	out := New(z.Apex)
	for _, rr := range z.Records {
		if rr.Type() == dnswire.TypeSOA {
			soa := rr.Data.(dnswire.SOARecord)
			soa.Serial = serial
			rr.Data = soa
		}
		out.Add(rr)
	}
	return out
}

// String renders the zone in master-file format.
func (z *Zone) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; zone %s, serial %d, %d records\n", z.Apex, z.Serial(), len(z.Records))
	for _, rr := range z.Records {
		sb.WriteString(rr.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SerialCompare compares two SOA serials using RFC 1982 serial-number
// arithmetic: it returns -1, 0, or 1 when a precedes, equals, or follows b.
func SerialCompare(a, b uint32) int {
	if a == b {
		return 0
	}
	if (a < b && b-a < 1<<31) || (a > b && a-b > 1<<31) {
		return -1
	}
	return 1
}

// SerialForDate returns the conventional YYYYMMDDNN root-zone serial.
func SerialForDate(year, month, day, rev int) uint32 {
	return uint32(year*1000000 + month*10000 + day*100 + rev)
}
