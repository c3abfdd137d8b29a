package dnsserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blast"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

// linearOracle answers class-IN queries the way the server did before the
// zone's owner index existed: every lookup scans every record. It exists
// only to pin the indexed path's answers byte for byte. Each record's
// canonical owner is computed once, and each name's scan is remembered, which
// changes the oracle's speed, not its answers.
type linearOracle struct {
	z     *zone.Zone
	names []dnswire.Name         // canonical owner of each record
	scans map[dnswire.Name][]int // canonical name -> indices of its records
}

func newLinearOracle(z *zone.Zone) *linearOracle {
	o := &linearOracle{z: z, names: make([]dnswire.Name, len(z.Records)), scans: map[dnswire.Name][]int{}}
	for i, rr := range z.Records {
		o.names[i] = rr.Name.Canonical()
	}
	return o
}

func (o *linearOracle) lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	nc := name.Canonical()
	owned, ok := o.scans[nc]
	if !ok {
		for i := range o.z.Records {
			if o.names[i] == nc {
				owned = append(owned, i)
			}
		}
		o.scans[nc] = owned
	}
	var out []dnswire.RR
	for _, i := range owned {
		if rr := o.z.Records[i]; typ == dnswire.TypeANY || rr.Type() == typ {
			out = append(out, rr)
		}
	}
	return out
}

func (o *linearOracle) soa() (dnswire.RR, bool) {
	for i, rr := range o.z.Records {
		if rr.Type() == dnswire.TypeSOA && o.names[i] == o.z.Apex.Canonical() {
			return rr, true
		}
	}
	return dnswire.RR{}, false
}

func (o *linearOracle) delegation(name dnswire.Name) []dnswire.RR {
	z := o.z
	for n := name; !n.IsRoot() || z.Apex.IsRoot() && n == name; n = n.Parent() {
		if n.Canonical() == z.Apex.Canonical() {
			break
		}
		if nsset := o.lookup(n, dnswire.TypeNS); len(nsset) > 0 {
			return nsset
		}
		if n.IsRoot() {
			break
		}
	}
	return nil
}

func (o *linearOracle) glue(host dnswire.Name) []dnswire.RR {
	return append(o.lookup(host, dnswire.TypeA), o.lookup(host, dnswire.TypeAAAA)...)
}

func (o *linearOracle) coveringSigs(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range o.lookup(name, dnswire.TypeRRSIG) {
		if sig, ok := rr.Data.(dnswire.RRSIGRecord); ok && sig.TypeCovered == typ {
			out = append(out, rr)
		}
	}
	return out
}

func (o *linearOracle) addGlue(resp *dnswire.Message, nsset []dnswire.RR, dnssecOK bool) {
	for _, rr := range nsset {
		ns, ok := rr.Data.(dnswire.NSRecord)
		if !ok {
			continue
		}
		resp.Additional = append(resp.Additional, o.glue(ns.Host)...)
		if dnssecOK {
			resp.Additional = append(resp.Additional, o.coveringSigs(ns.Host, dnswire.TypeA)...)
			resp.Additional = append(resp.Additional, o.coveringSigs(ns.Host, dnswire.TypeAAAA)...)
		}
	}
}

func (o *linearOracle) addSOA(resp *dnswire.Message, dnssecOK bool) {
	if soa, ok := o.soa(); ok {
		resp.Authority = append(resp.Authority, soa)
		if dnssecOK {
			resp.Authority = append(resp.Authority, o.coveringSigs(o.z.Apex, dnswire.TypeSOA)...)
		}
	}
}

func (o *linearOracle) addNSEC(resp *dnswire.Message, name dnswire.Name) {
	resp.Authority = append(resp.Authority, o.lookup(name, dnswire.TypeNSEC)...)
	resp.Authority = append(resp.Authority, o.coveringSigs(name, dnswire.TypeNSEC)...)
}

func (o *linearOracle) addCoveringNSEC(resp *dnswire.Message, name dnswire.Name) {
	for _, rr := range o.z.Records {
		nsec, ok := rr.Data.(dnswire.NSECRecord)
		if !ok {
			continue
		}
		if zone.NSECCovers(rr.Name, nsec.NextName, name) {
			resp.Authority = append(resp.Authority, rr)
			resp.Authority = append(resp.Authority, o.coveringSigs(rr.Name, dnswire.TypeNSEC)...)
			return
		}
	}
}

// handle is Server.Handle for a single-zone server and a class-IN query,
// answered from the oracle's scans.
func (o *linearOracle) handle(s *Server, query *dnswire.Message) *dnswire.Message {
	q := query.Questions[0]
	resp := &dnswire.Message{
		Header:    dnswire.Header{ID: query.Header.ID, Response: true, Opcode: query.Header.Opcode},
		Questions: []dnswire.Question{q},
	}
	dnssecOK := false
	if opt, ok := query.EDNS(); ok {
		resp.WithEDNS(uint16(max(s.cfg.UDPSize, dnswire.MaxUDPPayload)), opt.Do)
		dnssecOK = opt.Do
	}
	if !q.Name.SubdomainOf(o.z.Apex) {
		resp.Header.Rcode = dnswire.RcodeRefused
		return resp
	}
	z := o.z
	answers := o.lookup(q.Name, q.Type)
	isDelegated := len(o.delegation(q.Name)) > 0
	if len(answers) > 0 && (!isDelegated || q.Name.Canonical() == z.Apex.Canonical()) {
		resp.Header.Authoritative = true
		resp.Answers = answers
		if dnssecOK {
			resp.Answers = append(resp.Answers, o.coveringSigs(q.Name, q.Type)...)
		}
		if q.Name.Canonical() == z.Apex.Canonical() && q.Type == dnswire.TypeNS {
			o.addGlue(resp, answers, dnssecOK)
		}
		return resp
	}
	if deleg := o.delegation(q.Name); len(deleg) > 0 {
		resp.Authority = deleg
		o.addGlue(resp, deleg, false)
		return resp
	}
	if len(o.lookup(q.Name, dnswire.TypeANY)) > 0 {
		resp.Header.Authoritative = true
		o.addSOA(resp, dnssecOK)
		if dnssecOK {
			o.addNSEC(resp, q.Name)
		}
		return resp
	}
	resp.Header.Authoritative = true
	resp.Header.Rcode = dnswire.RcodeNXDomain
	o.addSOA(resp, dnssecOK)
	if dnssecOK {
		o.addCoveringNSEC(resp, q.Name)
		o.addNSEC(resp, z.Apex)
	}
	return resp
}

// doVariants returns query with the DO bit set and with it clear: EDNS at
// the query's advertised size (1232 without one) with DO, and the query
// without DO (EDNS kept, DO cleared, when it had EDNS).
func doVariants(query *dnswire.Message) [2]*dnswire.Message {
	base := func() *dnswire.Message {
		return &dnswire.Message{Header: query.Header, Questions: []dnswire.Question{query.Questions[0]}}
	}
	opt, hasEDNS := query.EDNS()
	size := opt.UDPSize
	if !hasEDNS {
		size = 1232
	}
	off := base()
	if hasEDNS {
		off.WithEDNS(size, false)
	}
	return [2]*dnswire.Message{base().WithEDNS(size, true), off}
}

// checkAgainstOracle packs the server's and the oracle's answers to query
// and requires identical bytes.
func checkAgainstOracle(t *testing.T, s *Server, o *linearOracle, query *dnswire.Message) {
	t.Helper()
	resp := s.Handle(query, false)
	if resp == nil {
		t.Fatalf("%v: dropped", query.Questions[0])
	}
	got, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.handle(s, query).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		opt, _ := query.EDNS()
		t.Fatalf("%v (DO=%v): indexed answer differs from the linear oracle\nindexed: %v\noracle:  %v",
			query.Questions[0], opt.Do, resp, o.handle(s, query))
	}
}

// fuzzQueries returns seeded queries over z's owner names built to reach
// every branch of the lookup: owners in random case, deep names below
// owners and below nothing, junk labels spread over the whole NSEC chain,
// names right after the apex and after the last owner, and every type the
// zone holds plus ones it does not.
func fuzzQueries(z *zone.Zone, n int, seed int64) []*dnswire.Message {
	rng := rand.New(rand.NewSource(seed))
	var owners []dnswire.Name
	seen := map[dnswire.Name]bool{}
	for _, rr := range z.Records {
		if n := rr.Name.Canonical(); !seen[n] {
			seen[n] = true
			owners = append(owners, n)
		}
	}
	types := []dnswire.Type{
		dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA,
		dnswire.TypeDNSKEY, dnswire.TypeNSEC, dnswire.TypeRRSIG, dnswire.TypeZONEMD,
		dnswire.TypeTXT, dnswire.TypeMX, dnswire.TypeANY,
	}
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_~"
	label := func() string {
		b := make([]byte, 1+rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	mixCase := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			if 'a' <= c && c <= 'z' && rng.Intn(2) == 0 {
				b[i] = c - 'a' + 'A'
			}
		}
		return string(b)
	}
	edges := []string{"-.", "0.", "00.", "a.", "~.", "~~~~.", "zzzzzzzz.", "xn--zzzzzz.", "\xff\xfe.", "ZZZ.", "com-x.", "COM0."}
	var qs []*dnswire.Message
	for i := 0; len(qs) < n; i++ {
		var name string
		switch rng.Intn(6) {
		case 0: // an owner, in random case
			name = mixCase(string(owners[rng.Intn(len(owners))]))
		case 1: // a deep name below an owner
			name = string(owners[rng.Intn(len(owners))])
			for d := 1 + rng.Intn(5); d > 0; d-- {
				name = label() + "." + name
			}
			if name[len(name)-2] == '.' { // below the root: drop the doubled dot
				name = name[:len(name)-1]
			}
			name = mixCase(name)
		case 2: // a junk TLD anywhere in the chain
			name = label() + "."
		case 3: // a deep junk name
			name = label() + "." + label() + "." + label() + "."
		case 4: // the chain's edges
			name = edges[rng.Intn(len(edges))]
		default: // the apex
			name = "."
		}
		qn, err := dnswire.NewName(name)
		if err != nil {
			continue
		}
		qs = append(qs, dnswire.NewQuery(uint16(i), qn, types[rng.Intn(len(types))]))
	}
	return qs
}

// corpusQueries decodes a blast corpus: the B-Root mix the serve benchmark
// offers.
func corpusQueries(t *testing.T, tlds, size int) []*dnswire.Message {
	t.Helper()
	corpus, err := blast.BuildCorpus(blast.DefaultMix(), tlds, size, 1)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*dnswire.Message, corpus.Len())
	for i := range qs {
		if qs[i], err = dnswire.Unpack(corpus.Wire(i)); err != nil {
			t.Fatal(err)
		}
	}
	return qs
}

// TestIndexedHandleMatchesLinearOracle pins the owner index's answers to
// the linear scans it replaced: every packed response from Handle must
// equal the oracle's, over rootblast's whole default corpus (8,192 queries)
// and a fuzzed name set, each with DO on and off, at 120 and 1,500 TLDs.
func TestIndexedHandleMatchesLinearOracle(t *testing.T) {
	for _, tlds := range []int{120, 1500} {
		t.Run(fmt.Sprintf("tlds=%d", tlds), func(t *testing.T) {
			z, _ := signedRootZone(t, tlds)
			s, err := New(Config{Zone: z, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			o := newLinearOracle(z)
			queries := append(corpusQueries(t, tlds, 8192), fuzzQueries(z, 4096, int64(tlds))...)
			for _, q := range queries {
				for _, v := range doVariants(q) {
					checkAgainstOracle(t, s, o, v)
				}
			}
		})
	}
}

// TestIndexedHandleMatchesOracleOnDamagedZones covers the zones the index
// cannot take at face value: broken NSEC chains, where the covering NSEC
// must come from the scan, and a zone never canonicalized, whose owner
// spans are not runs of Records.
func TestIndexedHandleMatchesOracleOnDamagedZones(t *testing.T) {
	signed, _ := signedRootZone(t, 120)
	nsecAt := func(z *zone.Zone, owner string) int {
		for i, rr := range z.Records {
			if _, ok := rr.Data.(dnswire.NSECRecord); ok && rr.Name == dnswire.MustName(owner) {
				return i
			}
		}
		t.Fatalf("no NSEC at %s", owner)
		return -1
	}
	damaged := map[string]func() *zone.Zone{
		// com.'s NSEC now spans most of the chain, overlapping the spans of
		// the NSECs after it: several NSECs cover one name.
		"overlapping-span": func() *zone.Zone {
			z := signed.CloneCOW()
			z.MutateRecord(nsecAt(z, "com."), func(rr *dnswire.RR) {
				rr.Data = dnswire.NSECRecord{NextName: dnswire.MustName("xn--synth010."), Types: rr.Data.(dnswire.NSECRecord).Types}
			})
			return z
		},
		// de.'s NSEC moved to an owner of its own: a hole in the chain.
		"renamed-owner": func() *zone.Zone {
			z := signed.CloneCOW()
			z.MutateRecord(nsecAt(z, "de."), func(rr *dnswire.RR) { rr.Name = dnswire.MustName("dd.") })
			return z
		},
		// One NSEC dropped outright.
		"missing-nsec": func() *zone.Zone {
			drop := nsecAt(signed, "org.")
			z := zone.New(signed.Apex)
			for i, rr := range signed.Records {
				if i != drop {
					z.Add(rr)
				}
			}
			return z
		},
		// An intact zone in shuffled record order.
		"shuffled": func() *zone.Zone {
			z := zone.New(signed.Apex)
			for _, i := range rand.New(rand.NewSource(3)).Perm(len(signed.Records)) {
				z.Add(signed.Records[i])
			}
			return z
		},
	}
	corpus := corpusQueries(t, 120, 2048)
	for name, build := range damaged {
		t.Run(name, func(t *testing.T) {
			z := build()
			s, err := New(Config{Zone: z, DisableCache: true})
			if err != nil {
				t.Fatal(err)
			}
			o := newLinearOracle(z)
			for _, q := range append(fuzzQueries(z, 4096, 9), corpus...) {
				for _, v := range doVariants(q) {
					checkAgainstOracle(t, s, o, v)
				}
			}
		})
	}
}

// TestRecordsExaminedFlatInZoneSize pins the miss path's work, free of
// timing noise: the zone records examined to answer an NXDOMAIN with its
// proof, a TLD referral, and the signed priming answer are the same for a
// 120-TLD and a 1,500-TLD zone. Before the owner index each grew with the
// zone.
func TestRecordsExaminedFlatInZoneSize(t *testing.T) {
	queries := map[string]*dnswire.Message{
		"nxdomain-do": dnswire.NewQuery(1, dnswire.MustName("junk.nosuchtld."), dnswire.TypeA).WithEDNS(1232, true),
		"referral":    dnswire.NewQuery(2, dnswire.MustName("www.com."), dnswire.TypeA),
		"apex-ns-do":  dnswire.NewQuery(3, dnswire.Root, dnswire.TypeNS).WithEDNS(4096, true),
	}
	examined := map[string][]int64{}
	for _, tlds := range []int{120, 1500} {
		z, _ := signedRootZone(t, tlds)
		s, err := New(Config{Zone: z, DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for name, q := range queries {
			before := counterValue(t, "zone/records_examined")
			if s.Handle(q, false) == nil {
				t.Fatalf("%s: dropped", name)
			}
			examined[name] = append(examined[name], counterValue(t, "zone/records_examined")-before)
		}
	}
	for name, n := range examined {
		if n[0] <= 0 || n[0] > 200 || n[0] != n[1] {
			t.Errorf("%s: records examined at 120 and 1,500 TLDs = %v, want equal, positive and small", name, n)
		}
	}
}
