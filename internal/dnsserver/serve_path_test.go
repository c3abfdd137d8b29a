package dnsserver

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dnswire"
)

// rawUDP sends wire to the server and returns the raw response datagram,
// bypassing the client library so tests can pin exact bytes and TC bits.
func rawUDP(tb testing.TB, addr net.Addr, wire []byte) []byte {
	tb.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		tb.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		tb.Fatal(err)
	}
	return buf[:n]
}

// TestTCFallbackAcrossEDNSSizes exercises truncation at every EDNS size
// bucket: the UDP response must fit the bucketed limit, set TC exactly when
// the full answer does not fit, and the TCP path must always return the
// complete answer.
func TestTCFallbackAcrossEDNSSizes(t *testing.T) {
	z, _ := signedRootZone(t, 30)
	s, c := startServer(t, Config{Zone: z})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)

	cases := []struct {
		name  string
		edns  uint16 // 0 = no EDNS
		do    bool
		limit int
	}{
		{"no-edns", 0, false, 512},
		{"edns-512", 512, false, 512},
		{"edns-1232-do", 1232, true, 1232},
		{"edns-4096-do", 4096, true, 4096},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			query := dnswire.NewQuery(99, dnswire.Root, dnswire.TypeNS)
			if tc.edns > 0 {
				query.WithEDNS(tc.edns, tc.do)
			}
			wire, err := query.Pack()
			if err != nil {
				t.Fatal(err)
			}
			// The full (untruncated) answer, as the TCP path would send it.
			full := s.Handle(query, true)
			fullWire, err := full.Pack()
			if err != nil {
				t.Fatal(err)
			}

			raw := rawUDP(t, addr, wire)
			resp, err := dnswire.Unpack(raw)
			if err != nil {
				t.Fatalf("UDP response unparseable: %v", err)
			}
			if len(raw) > tc.limit {
				t.Errorf("UDP response is %d bytes, over the %d limit", len(raw), tc.limit)
			}
			wantTC := len(fullWire) > tc.limit
			if resp.Header.Truncated != wantTC {
				t.Errorf("TC = %v, want %v (full answer %d bytes, limit %d)",
					resp.Header.Truncated, wantTC, len(fullWire), tc.limit)
			}
			if !wantTC && !bytes.Equal(raw, fullWire) {
				t.Error("untruncated UDP response differs from the full answer")
			}

			// The client must recover the complete answer (TCP fallback on TC).
			c.EDNSSize = tc.edns
			got, err := c.Query(dnswire.Root, dnswire.TypeNS)
			if err != nil {
				t.Fatal(err)
			}
			if got.Header.Truncated || len(got.Answers) < 13 {
				t.Errorf("fallback answer: TC=%v answers=%d", got.Header.Truncated, len(got.Answers))
			}
		})
	}
}

// TestCachedResponseByteIdentity pins the tentpole's correctness invariant:
// a cache hit returns byte-for-byte what the full path produces — against a
// cache-disabled twin server, across repeats, and with the ID patched.
func TestCachedResponseByteIdentity(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	cached, cc := startServer(t, Config{Zone: z, Identity: Identity{Hostname: "h", Version: "v"}})
	_, uc := startServer(t, Config{Zone: z, Identity: Identity{Hostname: "h", Version: "v"}, DisableCache: true})
	cachedAddr, _ := net.ResolveUDPAddr("udp", cc.Addr)
	uncachedAddr, _ := net.ResolveUDPAddr("udp", uc.Addr)

	queries := []*dnswire.Message{
		dnswire.NewQuery(7, dnswire.Root, dnswire.TypeSOA),
		dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeA),
		dnswire.NewQuery(7, dnswire.MustName("www.com."), dnswire.TypeAAAA),
		dnswire.NewQuery(7, dnswire.MustName("nope.nosuchtld."), dnswire.TypeA).WithEDNS(1232, true),
		dnswire.NewQuery(7, dnswire.Root, dnswire.TypeDNSKEY).WithEDNS(4096, true),
	}
	for i, q := range queries {
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		miss := rawUDP(t, cachedAddr, wire)    // populates the cache
		hit := rawUDP(t, cachedAddr, wire)     // served from the cache
		plain := rawUDP(t, uncachedAddr, wire) // always the full path
		if !bytes.Equal(miss, hit) {
			t.Errorf("query %d: cache hit differs from the miss that filled it", i)
		}
		if !bytes.Equal(hit, plain) {
			t.Errorf("query %d: cached response differs from cache-disabled server", i)
		}
		// A different ID must yield the same bytes modulo the ID field.
		q.Header.ID = 0x1234
		wire2, _ := q.Pack()
		hit2 := rawUDP(t, cachedAddr, wire2)
		if hit2[0] != 0x12 || hit2[1] != 0x34 {
			t.Errorf("query %d: response ID not patched: % x", i, hit2[:2])
		}
		if !bytes.Equal(hit2[2:], hit[2:]) {
			t.Errorf("query %d: response body changed with the query ID", i)
		}
	}
	// The hits above must actually have been hits.
	st := cached.state.Load()
	if st.cache == nil || st.cache.Len() == 0 {
		t.Fatal("response cache is empty after cacheable queries")
	}
}

// TestCacheInvalidationOnSetZone verifies the atomic swap: after SetZone,
// answers reflect the new zone immediately and match a server that never
// cached the old one, byte for byte.
func TestCacheInvalidationOnSetZone(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, c := startServer(t, Config{Zone: z})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)

	query := dnswire.NewQuery(3, dnswire.Root, dnswire.TypeSOA)
	wire, _ := query.Pack()
	before := rawUDP(t, addr, wire)
	rawUDP(t, addr, wire) // ensure the entry is cached

	bumped := z.BumpSerial(z.Serial() + 7)
	s.SetZone(bumped)

	after := rawUDP(t, addr, wire)
	if bytes.Equal(before, after) {
		t.Fatal("response unchanged after SetZone: stale cache entry served")
	}
	resp, err := dnswire.Unpack(after)
	if err != nil {
		t.Fatal(err)
	}
	soa := resp.Answers[0].Data.(dnswire.SOARecord)
	if soa.Serial != z.Serial()+7 {
		t.Errorf("serial after SetZone = %d, want %d", soa.Serial, z.Serial()+7)
	}
	// And the post-swap answer must match a fresh cache-free server.
	_, uc := startServer(t, Config{Zone: bumped, DisableCache: true})
	uncachedAddr, _ := net.ResolveUDPAddr("udp", uc.Addr)
	if plain := rawUDP(t, uncachedAddr, wire); !bytes.Equal(after, plain) {
		t.Error("post-swap cached answer differs from cache-disabled server")
	}
}

// TestSetZoneUnderLoad hammers the server from several goroutines while the
// zone is concurrently replaced. Every response must parse and carry a
// serial the server has actually served — never a torn or stale-cache mix.
// Run under -race this doubles as the swap-safety regression test for the
// old RWMutex zone field.
func TestSetZoneUnderLoad(t *testing.T) {
	z, _ := signedRootZone(t, 5)
	s, c := startServer(t, Config{Zone: z})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)

	base := z.Serial()
	const swaps = 40
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			query := dnswire.NewQuery(uint16(w), dnswire.Root, dnswire.TypeSOA)
			wire, _ := query.Pack()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				raw := rawUDP(t, addr, wire)
				resp, err := dnswire.Unpack(raw)
				if err != nil {
					t.Errorf("worker %d: torn response: %v", w, err)
					return
				}
				soa := resp.Answers[0].Data.(dnswire.SOARecord)
				if soa.Serial < base || soa.Serial > base+swaps {
					t.Errorf("worker %d: serial %d outside [%d, %d]", w, soa.Serial, base, base+swaps)
					return
				}
			}
		}(w)
	}
	for i := 1; i <= swaps; i++ {
		s.SetZone(z.BumpSerial(base + uint32(i)))
	}
	close(stop)
	wg.Wait()

	resp, err := c.Query(dnswire.Root, dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Answers[0].Data.(dnswire.SOARecord).Serial; got != base+swaps {
		t.Errorf("final serial = %d, want %d", got, base+swaps)
	}
}

// TestCacheEviction fills a tiny cache past its budget and checks that old
// entries fall out while the cache keeps answering correctly.
func TestCacheEviction(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	s, c := startServer(t, Config{Zone: z, CacheBytes: 4096})
	addr, _ := net.ResolveUDPAddr("udp", c.Addr)

	for i := 0; i < 64; i++ {
		q := dnswire.NewQuery(uint16(i), dnswire.MustName(fmt.Sprintf("host%02d.nosuchtld.", i)), dnswire.TypeA)
		wire, _ := q.Pack()
		resp, err := dnswire.Unpack(rawUDP(t, addr, wire))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Rcode != dnswire.RcodeNXDomain {
			t.Fatalf("query %d: rcode %s", i, resp.Header.Rcode)
		}
	}
	// The slow path sends before it caches, so the last put may still be
	// running: read the byte count under the cache's lock.
	cache := s.state.Load().cache
	cache.mu.RLock()
	held := cache.bytes
	cache.mu.RUnlock()
	if held > 4096 {
		t.Errorf("cache holds %d bytes, budget 4096", held)
	}
	if n := cache.Len(); n == 0 || n >= 64 {
		t.Errorf("cache has %d entries; want some but fewer than 64 (eviction)", n)
	}
}

// TestServeWorkersSharded runs a multi-shard server and checks queries land
// correctly regardless of which socket the kernel picks.
func TestServeWorkersSharded(t *testing.T) {
	z, _ := signedRootZone(t, 10)
	_, c := startServer(t, Config{Zone: z, ServeWorkers: 4})
	for i := 0; i < 32; i++ {
		resp, err := c.Query(dnswire.Root, dnswire.TypeSOA)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != 1 || resp.Answers[0].Type() != dnswire.TypeSOA {
			t.Fatalf("query %d: answers = %v", i, resp.Answers)
		}
	}
}
