package dnsserver

import (
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/qlog"
)

// benchServe drives one query wire through a running server over a connected
// UDP socket. The first exchange happens before the timer starts, so for a
// caching server the measured loop is pure hit path — which must report
// 0 allocs/op (ReportAllocs counts every goroutine, server loops included).
func benchServe(b *testing.B, cfg Config, query *dnswire.Message) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	raddr, err := net.ResolveUDPAddr("udp", addr.String())
	if err != nil {
		b.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	wire, err := query.Pack()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	exchange := func() {
		if _, err := conn.Write(wire); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
	exchange() // warm: populates the response cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}

func BenchmarkServeUDP(b *testing.B) {
	z, _ := signedRootZone(b, 120)
	base := Config{Zone: z, Identity: Identity{Hostname: "bench", Version: "v"}}

	b.Run("cached-A-referral", func(b *testing.B) {
		benchServe(b, base, dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA))
	})
	b.Run("cached-AAAA-referral", func(b *testing.B) {
		benchServe(b, base, dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeAAAA))
	})
	b.Run("cached-apex-SOA", func(b *testing.B) {
		benchServe(b, base, dnswire.NewQuery(7, dnswire.Root, dnswire.TypeSOA))
	})
	b.Run("cached-NXDOMAIN-do", func(b *testing.B) {
		benchServe(b, base, dnswire.NewQuery(7, dnswire.MustName("junk.nosuchtld."), dnswire.TypeA).WithEDNS(1232, true))
	})
	uncached := base
	uncached.DisableCache = true
	b.Run("uncached-A-referral", func(b *testing.B) {
		benchServe(b, uncached, dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA))
	})

	// Flight recorder compiled in and attached, but sampling nothing: the
	// hit path pays the key hash and one sampler branch and must still
	// report 0 allocs/op — the recorder-off contract from the qlog PR.
	qlogOff := base
	qlogOff.QLog = benchRecorder(b, qlog.Sampler{Every: 0})
	b.Run("cached-A-referral-qlog-off", func(b *testing.B) {
		benchServe(b, qlogOff, dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA))
	})
	// Every query sampled: the worst-case recording overhead (encode, block
	// append, black-box copy) for sizing the -qlog-sample budget.
	qlogAll := base
	qlogAll.QLog = benchRecorder(b, qlog.Sampler{Every: 1})
	b.Run("cached-A-referral-qlog-all", func(b *testing.B) {
		benchServe(b, qlogAll, dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA))
	})
}

// benchRecorder builds a recorder that discards its segment stream.
func benchRecorder(b *testing.B, s qlog.Sampler) *qlog.Recorder {
	b.Helper()
	rec, err := qlog.New(io.Discard, s, "")
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkHandleMiss times the miss path — Handle with the response cache
// off — on signed root zones of 120 and 1,500 TLDs (the real root has
// ~1,450), for the answers a root server gives most often: NXDOMAIN with
// and without its NSEC proof, a TLD referral, and the apex NS priming
// answer with signatures and glue. Its cost must not grow with the zone.
func BenchmarkHandleMiss(b *testing.B) {
	cases := []struct {
		name  string
		query *dnswire.Message
	}{
		{"nx", dnswire.NewQuery(7, dnswire.MustName("junk.nosuchtld."), dnswire.TypeA)},
		{"nx-DO", dnswire.NewQuery(7, dnswire.MustName("junk.nosuchtld."), dnswire.TypeA).WithEDNS(1232, true)},
		{"referral", dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA)},
		{"apex-NS-DO", dnswire.NewQuery(7, dnswire.Root, dnswire.TypeNS).WithEDNS(4096, true)},
	}
	for _, tlds := range []int{120, 1500} {
		z, _ := signedRootZone(b, tlds)
		s, err := New(Config{Zone: z, DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("tlds=%d/%s", tlds, c.name), func(b *testing.B) {
				s.Handle(c.query, false) // build the zone's lazy sidecar outside the timer
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s.Handle(c.query, false) == nil {
						b.Fatal("dropped")
					}
				}
			})
		}
	}
}
