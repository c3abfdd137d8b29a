package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/blast"
	"repro/internal/dnswire"
	"repro/internal/zone"
)

// answerClass is the response shape a query must get from a root server.
type answerClass uint8

const (
	// classNX: a name under no delegated TLD; NXDOMAIN with the SOA, and
	// with DO the NSEC denial and its signatures.
	classNX answerClass = iota
	// classReferral: a TLD or a name under one; a referral with the TLD's
	// NS set in authority and glue in additional.
	classReferral
	// classApex: apex data (SOA, DNSKEY); an authoritative answer of the
	// asked type, signed when DO is set.
	classApex
)

func (c answerClass) String() string {
	return [...]string{"nxdomain", "referral", "apex"}[c]
}

// query is one corpus entry with what its answer must look like.
type query struct {
	wire  []byte // packed query, message ID zero
	qEnd  int    // end of the question section
	qtype dnswire.Type
	do    bool
	class answerClass
}

// buildQueries generates the workload's query stream with blast.BuildCorpus
// and classifies each entry against the delegations of a tlds-TLD root zone.
func buildQueries(tlds, size int, seed uint64) ([]query, error) {
	corpus, err := blast.BuildCorpus(blast.DefaultMix(), tlds, size, seed)
	if err != nil {
		return nil, err
	}
	delegated := map[string]bool{}
	for _, n := range zone.TLDNames(tlds) {
		delegated[strings.ToLower(string(n))] = true
	}
	qs := make([]query, corpus.Len())
	for i := range qs {
		wire := corpus.Wire(i)
		m, err := dnswire.Unpack(wire)
		if err != nil || len(m.Questions) != 1 {
			return nil, fmt.Errorf("corpus query %d does not decode: %v", i, err)
		}
		q := m.Questions[0]
		qs[i] = query{wire: wire, qEnd: questionEnd(wire), qtype: q.Type}
		if opt, ok := m.EDNS(); ok {
			qs[i].do = opt.Do
		}
		labels := q.Name.Labels()
		switch {
		case len(labels) == 0:
			qs[i].class = classApex
		case delegated[strings.ToLower(labels[len(labels)-1])+"."]:
			qs[i].class = classReferral
		default:
			qs[i].class = classNX
		}
	}
	return qs, nil
}

// questionEnd returns the offset just past the single question of a packed
// query (query names are never compressed).
func questionEnd(wire []byte) int {
	off := 12
	for off < len(wire) && wire[off] != 0 {
		off += int(wire[off]) + 1
	}
	return off + 1 + 4
}

// Record-type bits the shape checks look for.
const (
	hasA = 1 << iota
	hasAAAA
	hasNS
	hasSOA
	hasNSEC
	hasRRSIG
	hasDNSKEY
	hasOther
)

func typeBit(t dnswire.Type) int {
	switch t {
	case dnswire.TypeA:
		return hasA
	case dnswire.TypeAAAA:
		return hasAAAA
	case dnswire.TypeNS:
		return hasNS
	case dnswire.TypeSOA:
		return hasSOA
	case dnswire.TypeNSEC:
		return hasNSEC
	case dnswire.TypeRRSIG:
		return hasRRSIG
	case dnswire.TypeDNSKEY:
		return hasDNSKEY
	}
	return hasOther
}

// checkAnswer verifies that resp answers q sent with message ID id: the ID
// and question are echoed, and the rcode and section shape match the
// query's class. Every response in this mix fits its size limit, so a
// truncated answer is a wrong shape too.
func checkAnswer(q *query, id uint16, resp []byte) error {
	v, err := dnswire.NewView(resp)
	if err != nil {
		return err
	}
	if v.ID() != id {
		return fmt.Errorf("id %d, sent %d", v.ID(), id)
	}
	flags := binary.BigEndian.Uint16(resp[2:])
	if !v.Response() || flags>>11&0xF != 0 {
		return fmt.Errorf("not a standard response (flags %#04x)", flags)
	}
	if v.Truncated() {
		return fmt.Errorf("truncated")
	}
	qd, an, ns, _ := v.Counts()
	if qd != 1 || len(resp) < q.qEnd || !bytes.Equal(resp[12:q.qEnd], q.wire[12:q.qEnd]) {
		return fmt.Errorf("question not echoed")
	}
	var sec [3]int
	cur := v.Records()
	var rr dnswire.RawRR
	for cur.Next(&rr) {
		if rr.Type == dnswire.TypeOPT {
			continue
		}
		if rr.Type == q.qtype && rr.Section == dnswire.SectionAnswer {
			sec[0] |= 1 << 16 // the asked type is present
		}
		sec[rr.Section] |= typeBit(rr.Type)
	}
	if cur.Err() != nil {
		return fmt.Errorf("records: %v", cur.Err())
	}
	aa := flags&(1<<10) != 0
	rcode := v.Rcode()
	switch q.class {
	case classNX:
		want := hasSOA
		if q.do {
			want |= hasNSEC | hasRRSIG
		}
		if rcode != dnswire.RcodeNXDomain || !aa || an != 0 || sec[1]&want != want {
			return fmt.Errorf("nxdomain: rcode %d aa %v an %d authority %#x", rcode, aa, an, sec[1])
		}
	case classReferral:
		if rcode != dnswire.RcodeNoError || aa || an != 0 || ns == 0 || sec[1] != hasNS || sec[2]&(hasA|hasAAAA) == 0 {
			return fmt.Errorf("referral: rcode %d aa %v an %d authority %#x additional %#x", rcode, aa, an, sec[1], sec[2])
		}
	case classApex:
		want := 1 << 16
		if q.do {
			want |= hasRRSIG
		}
		if rcode != dnswire.RcodeNoError || !aa || sec[0]&want != want {
			return fmt.Errorf("apex %v: rcode %d aa %v answer %#x", q.qtype, rcode, aa, sec[0])
		}
	}
	return nil
}
