// Package dnsserver implements an authoritative DNS server for the root
// zone over real UDP and TCP sockets: apex answers, TLD referrals with glue,
// priming responses (RFC 8109), NXDOMAIN, CHAOS-class server identity
// (hostname.bind, id.server, version.bind, version.server), truncation with
// TCP fallback, and AXFR. Each simulated root server instance in the study
// can be backed by one of these, and the examples run them on loopback.
//
// The UDP path is built for line rate: N read loops on SO_REUSEPORT-sharded
// sockets (or N loops sharing one socket where unsupported), a zero-alloc
// fast path answering repeat queries from a response cache keyed by the raw
// question bytes, and an atomically swapped zone pointer so queries never
// take a lock. See serve_udp.go and cache.go.
package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/axfr"
	"repro/internal/dnswire"
	"repro/internal/netem"
	"repro/internal/qlog"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

// Identity is what the server reports to CHAOS-class identity queries.
type Identity struct {
	// Hostname answers hostname.bind and id.server, e.g. the instance name
	// "fra3.l.root-servers.org" a root instance would report.
	Hostname string
	// Version answers version.bind and version.server.
	Version string
}

// Config configures a Server.
type Config struct {
	// Zone is the primary zone to serve. It must have a SOA at its apex.
	Zone *zone.Zone
	// ExtraZones are additional authoritative zones (the real root servers
	// also serve root-servers.net). Lookups pick the zone with the
	// longest-matching apex.
	ExtraZones []*zone.Zone
	// Identity is reported on CHAOS TXT queries. Empty fields yield REFUSED,
	// like roots that suppress identity.
	Identity Identity
	// AllowAXFR enables zone transfers on the TCP listener.
	AllowAXFR bool
	// UDPSize caps UDP responses; larger answers set TC. Defaults to 512
	// without EDNS, or the client's advertised size. Effective limits are
	// floored to the bucket set {512, 1232, 4096} so the cached and uncached
	// paths truncate identically (see bucketLimit).
	UDPSize int
	// ServeWorkers is the number of UDP read loops. On Linux each loop owns
	// its own SO_REUSEPORT socket and the kernel shards datagrams between
	// them; elsewhere the loops share one socket. 0 means GOMAXPROCS.
	ServeWorkers int
	// DisableCache turns the response cache off, forcing every query down
	// the full decode/lookup/pack path (ablation and benchmarks).
	DisableCache bool
	// CacheBytes bounds the response cache; 0 means the 1 MiB default,
	// sized for repeated names only (see defaultCacheBytes).
	CacheBytes int64
	// RRL enables BIND-style response-rate-limiting on the UDP path when
	// Rate > 0 (see RRLConfig). The zero value leaves it off with no cost
	// on the hot path beyond one nil check.
	RRL RRLConfig
	// Netem applies a deterministic adverse-network profile at the socket
	// boundary: UDP datagrams pass the emulated link on ingress and
	// egress, and accepted TCP connections may be cut mid-stream. The
	// zero profile is off.
	Netem netem.Profile
	// QLog attaches a per-query flight recorder to the UDP serve path:
	// every sampled query emits one serve/query event at its terminal
	// point (ingress drop, overload shed, or the egress funnel). Nil
	// leaves recording off; the fast path then pays one nil check.
	QLog *qlog.Recorder
	// QueueDepth bounds each shard's slow-path queue (cache misses wait
	// here for the shard's decode worker; a full queue sheds the query).
	// 0 means 256.
	QueueDepth int
	// TCPTimeout is the per-connection idle deadline: every read or write
	// on an accepted TCP connection must make progress within it, so one
	// stalled or half-open peer cannot pin a server goroutine. 0 means 2
	// minutes; negative disables deadlines.
	TCPTimeout time.Duration
	// MaxTCPConns caps concurrently served TCP connections; connections
	// over the cap are closed at accept. 0 means 64; negative is
	// unlimited.
	MaxTCPConns int
}

// serveState is everything a query touches that SetZone replaces: the zone
// and the response cache built over it. Swapping the whole struct through
// one atomic pointer makes zone replacement and cache invalidation a single
// indivisible step — a query that loaded the old state answers (and caches)
// consistently from the old zone, and no query ever sees a new zone with a
// stale cache.
type serveState struct {
	zone  *zone.Zone
	cache *respCache // nil when the cache is disabled
}

// Server is an authoritative DNS server bound to UDP and TCP sockets. Apart
// from the swappable serve state, every field is fixed by New or Start before
// any serving goroutine exists.
type Server struct {
	//rootlint:immutable-after-start
	cfg Config

	state atomic.Pointer[serveState]
	//rootlint:immutable-after-start
	udps []*net.UDPConn
	//rootlint:immutable-after-start
	tcp net.Listener
	//rootlint:immutable-after-start
	rrl *rrlState // nil when RRL is off
	//rootlint:immutable-after-start
	link *netem.Link // nil when netem is off
	//rootlint:immutable-after-start
	slow []*slowQueue
	//rootlint:immutable-after-start
	tcpSem chan struct{} // nil when the connection cap is unlimited
	wg     sync.WaitGroup
	closed chan struct{}
	//rootlint:immutable-after-start
	started bool
}

// New creates an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Zone == nil {
		return nil, errors.New("dnsserver: nil zone")
	}
	if _, ok := cfg.Zone.SOA(); !ok {
		return nil, errors.New("dnsserver: zone has no SOA")
	}
	if cfg.UDPSize == 0 {
		cfg.UDPSize = dnswire.MaxUDPPayload
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.TCPTimeout == 0 {
		cfg.TCPTimeout = 2 * time.Minute
	}
	if cfg.MaxTCPConns == 0 {
		cfg.MaxTCPConns = 64
	}
	s := &Server{cfg: cfg, closed: make(chan struct{})}
	s.rrl = newRRL(cfg.RRL)
	s.link = netem.NewLink(cfg.Netem)
	if cfg.MaxTCPConns > 0 {
		s.tcpSem = make(chan struct{}, cfg.MaxTCPConns)
	}
	s.state.Store(s.makeState(cfg.Zone))
	return s, nil
}

// makeState builds a serveState for z with a fresh (empty) response cache.
func (s *Server) makeState(z *zone.Zone) *serveState {
	st := &serveState{zone: z}
	if !s.cfg.DisableCache {
		st.cache = newRespCache(s.cfg.CacheBytes)
	}
	return st
}

// SetZone atomically replaces the served zone (zone updates mid-study). The
// swap installs a fresh response cache, so no answer computed from the old
// zone can be served afterwards.
func (s *Server) SetZone(z *zone.Zone) {
	s.state.Store(s.makeState(z))
}

// Zone returns the currently served primary zone.
func (s *Server) Zone() *zone.Zone {
	return s.state.Load().zone
}

// zoneFor returns the authoritative zone for name: the zone (primary or
// extra) with the longest apex that name falls under, or nil.
func (s *Server) zoneFor(primary *zone.Zone, name dnswire.Name) *zone.Zone {
	best := (*zone.Zone)(nil)
	bestLabels := -1
	consider := func(z *zone.Zone) {
		if z == nil || !name.SubdomainOf(z.Apex) {
			return
		}
		if n := len(z.Apex.Labels()); n > bestLabels {
			best, bestLabels = z, n
		}
	}
	consider(primary)
	for _, z := range s.cfg.ExtraZones {
		consider(z)
	}
	return best
}

// Start binds addr (e.g. "127.0.0.1:0") on UDP and TCP and serves until
// Close. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	if s.started {
		return nil, errors.New("dnsserver: already started")
	}
	workers := s.cfg.ServeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// With port 0 the kernel picks a free UDP port, which TCP may already
	// hold (any outgoing connection's ephemeral port can collide); then
	// the pair is bound again on a fresh pick.
	_, port, _ := net.SplitHostPort(addr)
	var udps []*net.UDPConn
	var tcp net.Listener
	for attempt := 1; ; attempt++ {
		var err error
		if udps, err = s.listenShards(addr, workers); err != nil {
			return nil, err
		}
		if tcp, err = net.Listen("tcp", udps[0].LocalAddr().String()); err == nil {
			break
		}
		for _, c := range udps {
			c.Close()
		}
		if port != "0" || attempt == 8 || !errors.Is(err, syscall.EADDRINUSE) {
			return nil, fmt.Errorf("dnsserver: listen tcp: %w", err)
		}
	}
	s.udps, s.tcp = udps, tcp
	s.started = true
	s.slow = make([]*slowQueue, workers)
	s.wg.Add(2*workers + 1)
	for i := 0; i < workers; i++ {
		conn := s.udps[i%len(s.udps)]
		s.slow[i] = newSlowQueue(s.cfg.QueueDepth)
		go s.serveUDPLoop(conn, i)
		go s.slowWorker(conn, i, s.slow[i])
	}
	go s.serveTCP()
	return udps[0].LocalAddr(), nil
}

// listenShards opens the UDP sockets for `workers` read loops: one
// SO_REUSEPORT socket per loop where the platform supports it, otherwise a
// single socket all loops share.
func (s *Server) listenShards(addr string, workers int) ([]*net.UDPConn, error) {
	if workers > 1 {
		if first, err := listenUDPReusePort(addr); err == nil {
			udps := []*net.UDPConn{first}
			// Re-bind the concrete address so every shard lands on the port
			// the first socket picked (addr may have been ":0").
			bound := first.LocalAddr().String()
			for i := 1; i < workers; i++ {
				conn, err := listenUDPReusePort(bound)
				if err != nil {
					for _, c := range udps {
						c.Close()
					}
					return nil, fmt.Errorf("dnsserver: listen udp shard %d: %w", i, err)
				}
				udps = append(udps, conn)
			}
			return udps, nil
		}
		// SO_REUSEPORT unavailable: fall through to one shared socket.
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: resolve %q: %w", addr, err)
	}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dnsserver: listen udp: %w", err)
	}
	return []*net.UDPConn{udp}, nil
}

// Close stops the listeners and waits for in-flight handlers. It is
// idempotent: later calls wait for the same shutdown and return nil.
func (s *Server) Close() error {
	if !s.started {
		return nil
	}
	select {
	case <-s.closed:
		s.wg.Wait()
		return nil
	default:
	}
	close(s.closed)
	for _, c := range s.udps {
		c.Close()
	}
	s.tcp.Close()
	s.wg.Wait()
	return nil
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		if s.tcpSem != nil {
			select {
			case s.tcpSem <- struct{}{}:
			default:
				// Over the concurrent-connection cap: refuse at accept so a
				// connection flood can't spawn unbounded goroutines.
				mTCPRejects.Inc()
				conn.Close()
				continue
			}
		}
		// The emulated link may cut this connection mid-stream; the idle
		// deadline guarantees a stalled or half-open peer releases the
		// goroutine (and its semaphore slot) in bounded time.
		wrapped := s.link.WrapConn(conn)
		if s.cfg.TCPTimeout > 0 {
			wrapped = &axfr.DeadlineConn{Conn: wrapped, Timeout: s.cfg.TCPTimeout}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			if s.tcpSem != nil {
				defer func() { <-s.tcpSem }()
			}
			s.serveConn(wrapped)
		}()
	}
}

// serveConn handles sequential queries on one TCP connection.
func (s *Server) serveConn(conn net.Conn) {
	for {
		query, err := axfr.ReadMessage(conn)
		if err != nil {
			return
		}
		if len(query.Questions) == 1 && query.Questions[0].Type == dnswire.TypeAXFR {
			if s.cfg.AllowAXFR {
				_ = axfr.Serve(conn, s.Zone(), query)
			} else {
				_ = axfr.Refuse(conn, query)
			}
			continue
		}
		resp := s.Handle(query, true)
		if resp == nil {
			return
		}
		if err := axfr.WriteMessage(conn, resp); err != nil {
			return
		}
	}
}

// Handle computes the response for query. tcp reports the transport (AXFR is
// only valid over TCP and handled by the caller). A nil return means "drop".
// Exported so in-process simulations can query a server without sockets.
func (s *Server) Handle(query *dnswire.Message, tcp bool) *dnswire.Message {
	return s.handleState(s.state.Load(), query, tcp)
}

// handleState is Handle pinned to one serveState, so the UDP miss path
// answers from the same zone whose cache it populates.
func (s *Server) handleState(st *serveState, query *dnswire.Message, tcp bool) *dnswire.Message {
	if query.Header.Response || len(query.Questions) != 1 {
		return nil
	}
	mQueries.Inc()
	timer := telemetry.StartTimer()
	defer timer.ObserveInto(mQueryDur)
	span := telemetry.StartSpan("serve", "dns", -1, 0)
	defer span.End()
	q := query.Questions[0]
	resp := &dnswire.Message{
		Header: dnswire.Header{
			ID:       query.Header.ID,
			Response: true,
			Opcode:   query.Header.Opcode,
		},
		Questions: []dnswire.Question{q},
	}
	if query.Header.Opcode != dnswire.OpcodeQuery {
		resp.Header.Rcode = dnswire.RcodeNotImp
		return resp
	}
	if opt, ok := query.EDNS(); ok {
		resp.WithEDNS(uint16(max(s.cfg.UDPSize, dnswire.MaxUDPPayload)), opt.Do)
	}

	switch q.Class {
	case dnswire.ClassCHAOS:
		s.answerChaos(resp, q)
	case dnswire.ClassINET:
		if q.Type == dnswire.TypeAXFR {
			resp.Header.Rcode = dnswire.RcodeRefused
			if tcp && s.cfg.AllowAXFR {
				// handled by serveConn; Handle alone refuses
			}
			return resp
		}
		s.answerINET(st, resp, q, query)
	default:
		resp.Header.Rcode = dnswire.RcodeRefused
	}
	return resp
}

// answerChaos answers the identity battery.
func (s *Server) answerChaos(resp *dnswire.Message, q dnswire.Question) {
	name := strings.ToLower(strings.TrimSuffix(string(q.Name), "."))
	var txt string
	switch name {
	case "hostname.bind", "id.server":
		txt = s.cfg.Identity.Hostname
	case "version.bind", "version.server":
		txt = s.cfg.Identity.Version
	default:
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	if txt == "" {
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	if q.Type != dnswire.TypeTXT {
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	resp.Header.Authoritative = true
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.Name, Class: dnswire.ClassCHAOS, TTL: 0,
		Data: dnswire.TXTRecord{Strings: []string{txt}},
	})
}

// answerINET answers class-IN queries from the best-matching authoritative
// zone: authoritative data at or above the apex cut, referrals for
// delegated names, NXDOMAIN otherwise. Every zone lookup goes through one
// Reader, whose records-examined tally feeds zone/records_examined.
func (s *Server) answerINET(st *serveState, resp *dnswire.Message, q dnswire.Question, query *dnswire.Message) {
	z := s.zoneFor(st.zone, q.Name)
	if z == nil {
		resp.Header.Rcode = dnswire.RcodeRefused
		return
	}
	dnssecOK := false
	if opt, ok := query.EDNS(); ok {
		dnssecOK = opt.Do
	}
	r := z.Reader()
	answerZone(resp, &r, z, q, dnssecOK)
	mRecordsExamined.Add(int64(r.Examined))
}

// answerZone answers q from z through r.
func answerZone(resp *dnswire.Message, r *zone.Reader, z *zone.Zone, q dnswire.Question, dnssecOK bool) {
	// Exact data at the name? The apex is never delegated.
	answers := r.Lookup(q.Name, q.Type)
	atApex := dnswire.CompareCanonical(q.Name, z.Apex) == 0
	var deleg []dnswire.RR
	if !atApex {
		deleg = r.Delegation(q.Name)
	}

	if len(answers) > 0 && len(deleg) == 0 {
		resp.Header.Authoritative = true
		resp.Answers = answers
		if dnssecOK {
			resp.Answers = append(resp.Answers, r.Signatures(q.Name, q.Type)...)
		}
		if atApex && q.Type == dnswire.TypeNS {
			addGlue(resp, r, answers, dnssecOK)
		}
		return
	}

	// Referral?
	if len(deleg) > 0 {
		resp.Authority = deleg
		addGlue(resp, r, deleg, false)
		return
	}

	// Name exists with other types (NODATA) or not at all (NXDOMAIN)?
	if len(r.Lookup(q.Name, dnswire.TypeANY)) > 0 {
		resp.Header.Authoritative = true
		addSOA(resp, r, dnssecOK)
		if dnssecOK {
			// NODATA proof: the NSEC at the queried name shows the type is
			// absent from its bitmap (RFC 4035 §3.1.3.1).
			addNSEC(resp, r, q.Name)
		}
		return
	}
	resp.Header.Authoritative = true
	resp.Header.Rcode = dnswire.RcodeNXDomain
	addSOA(resp, r, dnssecOK)
	if dnssecOK {
		// NXDOMAIN proof: the NSEC covering the queried name, plus the one
		// proving no wildcard could have matched (RFC 4035 §3.1.3.2). In
		// the root zone, the apex NSEC proves wildcard absence.
		if rr, ok := r.CoveringNSEC(q.Name); ok {
			resp.Authority = append(resp.Authority, rr)
			resp.Authority = append(resp.Authority, r.Signatures(rr.Name, dnswire.TypeNSEC)...)
		}
		addNSEC(resp, r, z.Apex)
	}
}

// addNSEC appends the NSEC RRset at name (with its RRSIG) to authority.
func addNSEC(resp *dnswire.Message, r *zone.Reader, name dnswire.Name) {
	resp.Authority = append(resp.Authority, r.Lookup(name, dnswire.TypeNSEC)...)
	resp.Authority = append(resp.Authority, r.Signatures(name, dnswire.TypeNSEC)...)
}

// addGlue appends A/AAAA (and with dnssecOK their RRSIGs) for NS targets.
func addGlue(resp *dnswire.Message, r *zone.Reader, nsset []dnswire.RR, dnssecOK bool) {
	for _, rr := range nsset {
		ns, ok := rr.Data.(dnswire.NSRecord)
		if !ok {
			continue
		}
		resp.Additional = append(resp.Additional, r.Glue(ns.Host)...)
		if dnssecOK {
			resp.Additional = append(resp.Additional, r.Signatures(ns.Host, dnswire.TypeA)...)
			resp.Additional = append(resp.Additional, r.Signatures(ns.Host, dnswire.TypeAAAA)...)
		}
	}
}

// addSOA puts the SOA (and optionally its RRSIG) in the authority section.
func addSOA(resp *dnswire.Message, r *zone.Reader, dnssecOK bool) {
	if soa, ok := r.SOA(); ok {
		resp.Authority = append(resp.Authority, soa)
		if dnssecOK {
			resp.Authority = append(resp.Authority, r.Signatures(soa.Name, dnswire.TypeSOA)...)
		}
	}
}

// Run is a convenience for examples: start on addr, block until ctx is done,
// then close.
func (s *Server) Run(ctx context.Context, addr string) (net.Addr, error) {
	bound, err := s.Start(addr)
	if err != nil {
		return nil, err
	}
	go func() {
		<-ctx.Done()
		s.Close()
	}()
	return bound, nil
}
