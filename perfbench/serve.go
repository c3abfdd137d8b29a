package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dnswire"
	"repro/internal/telemetry"
)

// answerLimit is the latency limit of an answer, rootblast's reap timeout:
// an answer later than this counts as a failure, and an unanswered query is
// declared lost once it has waited this long.
const answerLimit = 250 * time.Millisecond

// serveParams sizes one serve workload.
type serveParams struct {
	tlds      int     // delegations in the served root zone
	corpus    int     // distinct queries generated from the seed
	openRate  float64 // open-loop queries per second
	window    int     // closed-loop outstanding queries on the one socket
	warm      bool    // replay the whole corpus once before measuring
	launches  int     // server launches; each serves an equal share of the measured seconds
	openShare float64 // share of the measured seconds spent in the open loop
	layerTime time.Duration
}

// serveParamsFor returns the sizes of serve-junk or serve-hot. serve-junk's
// corpus is several times what the default 8 MiB response cache holds and a
// run never wraps it, so junk answers are evicted before they recur;
// serve-hot's corpus fits in the cache many times over.
func serveParamsFor(workload string, smoke bool) serveParams {
	p := serveParams{tlds: 1500, launches: 5, layerTime: 1500 * time.Millisecond}
	if workload == "serve-hot" {
		// rootserve's socket keeps its default receive buffer, about 250
		// queries: at 1,000 q/s it rides out a 250 ms stall of the server
		// (one answerLimit) without dropping a query.
		p.corpus, p.openRate, p.window, p.warm, p.openShare = 256, 1000, 32, true, 0.5
	} else {
		// The miss path answers a few hundred queries a second, so the
		// open loop gets more of the time to collect enough latencies.
		p.corpus, p.openRate, p.window, p.openShare = 1<<16, 30, 8, 0.6
	}
	if smoke {
		p.tlds, p.launches, p.layerTime = 200, 1, 100*time.Millisecond
		p.corpus = min(p.corpus, 2048)
		p.openRate = min(p.openRate, 500)
	}
	return p
}

// servePass is everything one measured pass against fresh servers yields,
// summed or pooled over the launches.
type servePass struct {
	setups      []float64  // seconds, launch to first answer (+ warm pass), per launch
	setupCPU    []float64  // rootserve CPU seconds over the same interval, per launch
	warms       []float64  // seconds, server ready line to end of set-up, per launch
	warm        *loopStats // warm passes (serve-hot)
	open, sat   *loopStats
	openP50     []float64     // median open-loop latency, ms, per launch
	satOffset   int           // corpus index of the saturation stream's first query
	serverCPU   time.Duration // rootserve CPU during the saturation phases
	selfCPU     time.Duration // benchmark CPU during the saturation phases
	setupRSSMB  []float64     // rootserve peak RSS at the end of set-up, per launch
	rssMB       []float64     // ... and after the measured phases, per launch
	hits        int64         // response-cache hits during the measured phases (traced)
	misses      int64
	sheds       int64
	clientPort  int
	serverPort  int
	rcvbufDrops int64 // UDP datagrams the kernel dropped on full receive buffers, measured phases

	// Hypervisor steal, in clock ticks, and wall time of the set-ups, the
	// open loops and the saturation phases.
	steal     [3]int64
	stealTime [3]time.Duration
}

// serveWorkload runs serve-junk or serve-hot. Untraced, it reports the
// end-to-end metrics of one pass; traced, it repeats the pass with the
// server's telemetry exported, reports the difference as the tracing
// overhead, then times the layers in-process on the same stream.
func serveWorkload(o options, r *run) error {
	p := serveParamsFor(o.workload, o.smoke)
	qs, err := buildQueries(p.tlds, p.corpus, o.seed)
	if err != nil {
		return err
	}
	r.note("workload: %s, %d-TLD signed root zone, %d distinct queries (blast.DefaultMix, seed %d), one client socket, loopback",
		o.workload, p.tlds, len(qs), o.seed)
	base, err := runServePass(o, p, qs, false)
	if err != nil {
		return err
	}
	e2e := serveE2E(base)
	reportServePass(r, "untraced", p, qs, base)
	if !o.trace {
		for name, v := range e2e {
			r.set(name, endToEndUnits[name], v)
		}
		return nil
	}
	traced, err := runServePass(o, p, qs, true)
	if err != nil {
		return err
	}
	reportServePass(r, "traced", p, qs, traced)
	reportOverhead(r, e2e, serveE2E(traced))
	if err := serveLayers(p, qs, traced, r); err != nil {
		return err
	}
	// The pipeline layers are not on this workload's path; a reference
	// pass of the study at smoke size fills them so every traced run
	// carries every per-layer metric.
	r.note("reference: pipeline-layer metrics come from a smoke-size study pass, not from this workload")
	ref := o
	ref.seconds = 0 // one cycle
	_, err = studyLayerPass(ref, studyParamsFor(true), r)
	return err
}

// endToEndUnits is the unit of every end-to-end metric, in report order.
var endToEndUnits = map[string]string{
	"setup_s":              "s",
	"throughput_per_cpu_s": "1/cpu_s",
	"peak_rss_mb":          "MB",
}

// serveE2E derives the end-to-end metrics of one pass. Set-up time is
// rootserve's CPU time from launch to the end of set-up, and with peak RSS
// a median over the launches. Throughput is the saturation phases' correct
// answers per second of rootserve CPU time: one client socket hashes to one
// SO_REUSEPORT shard, so this is the rate one busy shard sustains. CPU time
// does not count the time the hypervisor gives to other guests, which moves
// every wall-clock figure on a shared host; the wall-clock ones are printed.
func serveE2E(sp *servePass) map[string]float64 {
	return map[string]float64{
		"setup_s":              median(append([]float64(nil), sp.setupCPU...)),
		"throughput_per_cpu_s": float64(sp.sat.ok) / max(sp.serverCPU, time.Microsecond).Seconds(),
		"peak_rss_mb":          median(append([]float64(nil), sp.rssMB...)),
	}
}

// reportServePass tallies a pass's outcomes and notes its bases, the
// wall-clock rate and the latency tail.
func reportServePass(r *run, label string, p serveParams, qs []query, sp *servePass) {
	for _, s := range []*loopStats{sp.warm, sp.open, sp.sat} {
		if s != nil {
			r.tally(s.sent, s.failed())
			if s.firstErr != "" {
				r.note("%s: first failure: %s", label, s.firstErr)
			}
		}
	}
	lat := append([]float64(nil), sp.open.lat...)
	q90, q99 := supported(0.9, len(lat)), supported(0.99, len(lat))
	lag := append([]float64(nil), sp.open.lag...)
	r.note("%s: ports client %d -> server %d; open loop %.0f q/s: %d sent, %d answered in limit, %d late, %d lost, %d wrong; latency from due time: p50 per launch %.4v ms; over all n=%d answers p50 %.4f ms, tail p%.4g %.4f ms, p%.4g %.4f ms (not gated); generator lag p50 %.4f ms, p90 %.4f ms",
		label, sp.clientPort, sp.serverPort, p.openRate, sp.open.sent, sp.open.ok, sp.open.late, sp.open.lost, sp.open.bad,
		sp.openP50, len(lat), quantile(lat, 0.5), 100*q90, quantile(lat, q90), 100*q99, quantile(lat, q99), quantile(lag, 0.5), quantile(lag, 0.9))
	r.note("%s: saturation window %d: %d sent, %d answered in limit (throughput base), %d late, %d lost, %d wrong in %.3f s: wall-clock %.1f answers/s (not gated); junk (nxdomain) share of sent %.4f",
		label, p.window, sp.sat.sent, sp.sat.ok, sp.sat.late, sp.sat.lost, sp.sat.bad, sp.sat.elapsed.Seconds(),
		float64(sp.sat.ok)/sp.sat.elapsed.Seconds(), nxShare(qs, sp.satOffset, int(sp.sat.sent)))
	r.note("%s: rootserve busy cores %.3f, %.1f us CPU per answer over %.2f CPU s; set-up CPU %.4v s, wall %.4v s; peak RSS per launch %v MB at the end of set-up, %v MB after the measured phases",
		label, sp.serverCPU.Seconds()/sp.sat.elapsed.Seconds(), float64(sp.serverCPU.Microseconds())/float64(max(sp.sat.ok, 1)),
		sp.serverCPU.Seconds(), sp.setupCPU, sp.setups, sp.setupRSSMB, sp.rssMB)
	r.note("%s: hypervisor steal share set-up %.4f, open loop %.4f, saturation %.4f; UDP datagrams dropped on full receive buffers (whole machine) %d",
		label, stealShare(0, sp.steal[0], sp.stealTime[0]), stealShare(0, sp.steal[1], sp.stealTime[1]),
		stealShare(0, sp.steal[2], sp.stealTime[2]), sp.rcvbufDrops)
	if sp.hits+sp.misses > 0 {
		r.note("%s: response cache %d hits / %d lookups (share %.4f), %d shed", label,
			sp.hits, sp.hits+sp.misses, float64(sp.hits)/float64(sp.hits+sp.misses), sp.sheds)
	}
}

// nxShare is the share of the n queries sent from offset that are junk.
func nxShare(qs []query, offset, n int) float64 {
	if n == 0 {
		return 0
	}
	nx := 0
	for i := 0; i < n; i++ {
		if qs[(offset+i)%len(qs)].class == classNX {
			nx++
		}
	}
	return float64(nx) / float64(n)
}

// reportOverhead notes how far each end-to-end metric moved when traced.
func reportOverhead(r *run, untraced, traced map[string]float64) {
	var b strings.Builder
	for _, name := range []string{"setup_s", "throughput_per_cpu_s", "peak_rss_mb"} {
		fmt.Fprintf(&b, " %s %.4g -> %.4g (%+.1f%%)", name, untraced[name], traced[name],
			100*(traced[name]-untraced[name])/untraced[name])
	}
	r.note("tracing overhead (traced vs untraced pass):%s", b.String())
}

// runServePass launches rootserve p.launches times. Each launch serves an
// equal share of the measured seconds, an open-loop phase then a
// closed-loop saturation phase on one client socket, so that every launch
// carries the same traffic before its peak RSS is read. The open-loop and
// saturation streams continue through the corpus from launch to launch.
func runServePass(o options, p serveParams, qs []query, traced bool) (*servePass, error) {
	sp := &servePass{open: &loopStats{}, sat: &loopStats{}}
	if p.warm {
		sp.warm = &loopStats{}
	} else {
		// Junk traffic: the saturation stream starts on queries the open
		// loop never sends.
		sp.satOffset = len(qs) / 2
	}
	share := o.seconds / float64(p.launches) * float64(time.Second)
	openDur := time.Duration(p.openShare * share)
	satDur := time.Duration((1 - p.openShare) * share)
	for i := 0; i < p.launches; i++ {
		if err := sp.launch(o, p, qs, traced, openDur, satDur); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// launch sets up one server, runs both phases against it, adds what they
// measured to sp and stops the server.
func (sp *servePass) launch(o options, p serveParams, qs []query, traced bool, openDur, satDur time.Duration) error {
	steal0 := stealTicks()
	srv, conn, warm, err := setUpServer(o, p, qs, traced)
	if err != nil {
		return err
	}
	defer func() {
		conn.close()
		srv.stop()
	}()
	d := time.Since(srv.launched)
	sp.steal[0] += stealTicks() - steal0
	sp.stealTime[0] += d
	sp.setups = append(sp.setups, d.Seconds())
	sp.warms = append(sp.warms, since(srv.readyAt))
	if warm != nil {
		sp.warm.add(warm)
	}
	sp.clientPort = conn.port
	sp.serverPort = srv.addr.Port
	pid := srv.cmd.Process.Pid
	cpu, err := procCPU(pid)
	if err != nil {
		return err
	}
	sp.setupCPU = append(sp.setupCPU, cpu.Seconds())
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	sp.setupRSSMB = append(sp.setupRSSMB, rss)

	var before []telemetry.MetricValue
	if traced {
		if before, err = srv.scrape(); err != nil {
			return err
		}
	}
	steal0, drops0 := stealTicks(), udpRcvbufErrors()
	open, err := openLoop(conn, qs, int(sp.open.sent)%len(qs), p.openRate, openDur)
	if err != nil {
		return err
	}
	steal1 := stealTicks()
	sp.open.add(open)
	sp.openP50 = append(sp.openP50, quantile(append([]float64(nil), open.lat...), 0.5))
	sp.steal[1] += steal1 - steal0
	sp.stealTime[1] += open.elapsed
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	self0 := cpuSelf()
	sat, err := closedLoop(conn, qs, (sp.satOffset+int(sp.sat.sent))%len(qs), p.window, satDur, 0)
	if err != nil {
		return err
	}
	sp.selfCPU += cpuSelf() - self0
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	sp.serverCPU += cpu1 - cpu0
	sp.sat.add(sat)
	sp.steal[2] += stealTicks() - steal1
	sp.stealTime[2] += sat.elapsed
	sp.rcvbufDrops += udpRcvbufErrors() - drops0
	if rss, err = peakRSSMB(pid); err != nil {
		return err
	}
	sp.rssMB = append(sp.rssMB, rss)
	if traced {
		after, err := srv.scrape()
		if err != nil {
			return err
		}
		delta := func(name string) int64 { return counter(after, name) - counter(before, name) }
		sp.hits += delta("dns/cache/hits")
		sp.misses += delta("dns/cache/misses")
		sp.sheds += delta("serve/sheds")
	}
	return nil
}

// warmWindow bounds the warm pass's outstanding queries: they are all misses
// queued on one shard, and each must be answered within answerLimit.
const warmWindow = 4

// setUpServer launches one server, waits for its first answer on a fresh
// client socket and, for serve-hot, replays the corpus once to fill the
// response cache.
func setUpServer(o options, p serveParams, qs []query, traced bool) (*server, *udpConn, *loopStats, error) {
	srv, err := launchServer(o, p.tlds, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	conn, err := dialClient(o.seed, srv.addr)
	if err != nil {
		srv.stop()
		return nil, nil, nil, err
	}
	fail := func(err error) (*server, *udpConn, *loopStats, error) {
		conn.close()
		srv.stop()
		return nil, nil, nil, err
	}
	if err := firstAnswer(conn); err != nil {
		return fail(err)
	}
	var warm *loopStats
	if p.warm {
		if warm, err = closedLoop(conn, qs, 0, warmWindow, 0, len(qs)); err != nil {
			return fail(err)
		}
	}
	return srv, conn, warm, nil
}

// firstAnswer sends the apex SOA query until a correct answer arrives.
func firstAnswer(conn *udpConn) error {
	soa := dnswire.NewQuery(0, dnswire.Root, dnswire.TypeSOA)
	wire, err := soa.Pack()
	if err != nil {
		return err
	}
	q := &query{wire: wire, qEnd: questionEnd(wire), qtype: dnswire.TypeSOA, class: classApex}
	if err := conn.setTimeout(200 * time.Millisecond); err != nil {
		return err
	}
	buf := make([]byte, 65536)
	for attempt := uint16(1); attempt <= 50; attempt++ {
		wire[0], wire[1] = byte(attempt>>8), byte(attempt)
		if err := conn.write(wire); err != nil {
			return err
		}
		for {
			n, err := conn.read(buf)
			if err != nil {
				break // timed out (or refused): resend
			}
			if checkAnswer(q, attempt, buf[:n]) == nil {
				return nil
			}
		}
	}
	return errors.New("rootserve never answered the apex SOA query")
}

// dialClient binds the generator's socket to a source port derived from the
// seed, so parent and change runs of one seed present the same 4-tuple and
// get the same SO_REUSEPORT shard. A port in use moves to the next
// candidate; placement is never searched for.
func dialClient(seed uint64, raddr *net.UDPAddr) (*udpConn, error) {
	var lastErr error
	for k := uint64(0); k < 32; k++ {
		conn, err := dialUDP(10000+int((splitmix64(seed^0xc11e47)+k)%10000), raddr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("no free client port: %w", lastErr)
}

// server is one running rootserve process.
type server struct {
	cmd      *exec.Cmd
	addr     *net.UDPAddr
	telURL   string
	launched time.Time
	readyAt  time.Time
	readyCh  chan struct{} // closed once the serving line is printed
	exited   chan struct{}
	waitErr  error
	stderr   bytes.Buffer
}

// launchServer starts the shipped rootserve with its defaults on a port
// derived from the seed and waits for its "serving" line. A port in use
// moves to the next candidate. Traced, the server also exports its
// telemetry (counters and wall-clock histograms) over HTTP.
func launchServer(o options, tlds int, traced bool) (*server, error) {
	var lastErr error
	for k := uint64(0); k < 16; k++ {
		port := 20000 + int((splitmix64(o.seed^0x5e7e)+k)%10000)
		if !portFree(port) || traced && !portFree(port+10000) {
			// rootserve binds with SO_REUSEPORT and would silently share
			// the port with whatever holds it.
			lastErr = fmt.Errorf("port %d in use", port)
			continue
		}
		args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port), "-tlds", strconv.Itoa(tlds)}
		telURL := ""
		if traced {
			tel := "127.0.0.1:" + strconv.Itoa(port+10000)
			args = append(args, "-telemetry-addr", tel)
			telURL = "http://" + tel + "/metrics"
		}
		s, err := startServer(o.rootserve, args)
		if err != nil {
			return nil, err
		}
		s.addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port}
		s.telURL = telURL
		select {
		case <-s.readyCh:
			return s, nil
		case <-s.exited:
			lastErr = fmt.Errorf("rootserve exited: %v: %s", s.waitErr, strings.TrimSpace(s.stderr.String()))
			if !strings.Contains(s.stderr.String(), "address already in use") {
				return nil, lastErr
			}
		case <-time.After(60 * time.Second):
			s.stop()
			return nil, errors.New("rootserve did not start within 60 s")
		}
	}
	return nil, lastErr
}

// portFree reports whether nothing holds 127.0.0.1:port for UDP or TCP.
func portFree(port int) bool {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	u, err := net.ListenPacket("udp", addr)
	if err != nil {
		return false
	}
	u.Close()
	t, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	t.Close()
	return true
}

// startServer execs rootserve and scans its standard output for the line it
// prints once the zone is built and the sockets are bound.
func startServer(bin string, args []string) (*server, error) {
	s := &server{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	s.cmd.Stderr = &s.stderr
	// A benchmark killed outright takes its server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.launched = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	running.add(s)
	s.readyCh = make(chan struct{})
	go func() {
		sc := bufio.NewScanner(out)
		seen := false
		for sc.Scan() {
			if !seen && strings.HasPrefix(sc.Text(), "serving root zone") {
				s.readyAt = time.Now()
				seen = true
				close(s.readyCh)
			}
		}
		_, _ = io.Copy(io.Discard, out)
		s.waitErr = s.cmd.Wait()
		running.remove(s)
		close(s.exited)
	}()
	return s, nil
}

// servers is the set of rootserve processes still running, so that an
// interrupted benchmark can stop them before it exits.
type servers struct {
	mu sync.Mutex
	//rootlint:guardedby mu
	set map[*server]bool
}

var running = servers{set: map[*server]bool{}}

func (ss *servers) add(s *server) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.set[s] = true
}

func (ss *servers) remove(s *server) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	delete(ss.set, s)
}

// stopAll stops every running server.
func (ss *servers) stopAll() {
	ss.mu.Lock()
	var all []*server
	for s := range ss.set {
		all = append(all, s)
	}
	ss.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// stop interrupts the server, as a user would, and waits for it to exit.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape reads the server's telemetry snapshot.
func (s *server) scrape() ([]telemetry.MetricValue, error) {
	resp, err := http.Get(s.telURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseSnapshot(data)
}

// counter returns a counter's value from a snapshot (zero when absent).
func counter(snap []telemetry.MetricValue, name string) int64 {
	for _, m := range snap {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// loopStats counts one traffic phase. Every query sent ends as exactly one
// of ok, late, lost or bad.
type loopStats struct {
	sent, ok, late, lost, bad int64
	elapsed                   time.Duration
	firstErr                  string

	// Open loop.
	lat []float64 // ms from due time, per answer
	lag []float64 // ms each send ran behind schedule
}

func (s *loopStats) failed() int64 { return s.late + s.lost + s.bad }

// add folds the counts and samples of t, a later run of the same phase,
// into s.
func (s *loopStats) add(t *loopStats) {
	s.sent += t.sent
	s.ok += t.ok
	s.late += t.late
	s.lost += t.lost
	s.bad += t.bad
	s.elapsed += t.elapsed
	if s.firstErr == "" {
		s.firstErr = t.firstErr
	}
	s.lat = append(s.lat, t.lat...)
	s.lag = append(s.lag, t.lag...)
}

// judge classifies one matched answer and reports whether it is correct and
// within answerLimit.
func (s *loopStats) judge(q *query, id uint16, resp []byte, waited time.Duration) bool {
	if err := checkAnswer(q, id, resp); err != nil {
		s.bad++
		if s.firstErr == "" {
			s.firstErr = fmt.Sprintf("%s query %v: %v", q.class, q.qtype, err)
		}
		return false
	}
	if waited > answerLimit {
		s.late++
		return false
	}
	s.ok++
	return true
}

// stray counts a datagram that matches no outstanding query.
func (s *loopStats) stray(n int) {
	s.bad++
	if s.firstErr == "" {
		s.firstErr = fmt.Sprintf("unmatched %d-byte datagram", n)
	}
}

// patch copies query wire w into buf with message ID id.
func patch(buf, w []byte, id uint16) []byte {
	buf = append(buf[:0], w...)
	buf[0], buf[1] = byte(id>>8), byte(id)
	return buf
}

// openLoop sends queries from qs (cyclically, from offset) at a fixed rate
// for dur regardless of answers, and times each answer from when its query
// was due. The sender and the receiver each run on a locked thread; the
// receiver matches answers by message ID. The phase ends once every query
// is answered or has waited answerLimit.
func openLoop(conn *udpConn, qs []query, offset int, rate float64, dur time.Duration) (*loopStats, error) {
	n := max(int(rate*dur.Seconds()), 1)
	s := &loopStats{lag: make([]float64, 0, n)}
	recv := &loopStats{lat: make([]float64, 0, n)}
	due := make([]atomic.Int64, 1<<16) // due time (UnixNano) per outstanding ID, 0 when none
	wi := make([]int32, 1<<16)         // corpus index per ID, written before due
	var answered atomic.Int64
	var stopping atomic.Bool
	if err := conn.setTimeout(20 * time.Millisecond); err != nil {
		return nil, err
	}
	var recvErr error
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		lockThread()
		buf := make([]byte, 65536)
		for {
			k, err := conn.read(buf)
			if err == errTimeout {
				if stopping.Load() {
					return
				}
				continue
			}
			if err != nil {
				recvErr = err
				return
			}
			rx := time.Now().UnixNano()
			if k < 12 {
				recv.stray(k)
				continue
			}
			id := binary.BigEndian.Uint16(buf)
			d := due[id].Load()
			if d == 0 || !due[id].CompareAndSwap(d, 0) {
				recv.stray(k)
				continue
			}
			waited := time.Duration(rx - d)
			recv.judge(&qs[wi[id]], id, buf[:k], waited)
			recv.lat = append(recv.lat, float64(waited)/1e6)
			answered.Add(1)
		}
	}()

	var sendErr error
	var lastDue time.Time
	t0 := time.Now()
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		lockThread()
		sendBuf := make([]byte, 0, 512)
		interval := float64(time.Second) / rate
		for i := 0; i < n; i++ {
			lastDue = t0.Add(time.Duration(float64(i) * interval))
			sleepUntil(lastDue)
			now := time.Now()
			id := uint16(i)
			if due[id].Swap(0) != 0 {
				s.lost++ // still unanswered 65536 sends later
			}
			qi := (offset + i) % len(qs)
			wi[id] = int32(qi)
			sendBuf = patch(sendBuf, qs[qi].wire, id)
			due[id].Store(lastDue.UnixNano())
			if sendErr = conn.write(sendBuf); sendErr != nil {
				return
			}
			s.sent++
			s.lag = append(s.lag, float64(now.Sub(lastDue))/1e6)
		}
	}()
	<-sendDone
	for answered.Load()+s.lost < s.sent && time.Since(lastDue) < answerLimit+50*time.Millisecond {
		time.Sleep(time.Millisecond)
	}
	s.elapsed = time.Since(t0)
	stopping.Store(true)
	<-recvDone
	if sendErr != nil {
		return nil, sendErr
	}
	if recvErr != nil {
		return nil, recvErr
	}
	for i := range due {
		if due[i].Swap(0) != 0 {
			s.lost++
		}
	}
	s.ok, s.late, s.bad, s.firstErr, s.lat = recv.ok, recv.late, recv.bad, recv.firstErr, recv.lat
	return s, nil
}

// closedLoop keeps window queries outstanding on conn, sending the next one
// from qs (cyclically, from offset) as each answer arrives, until dur has
// passed or count queries were sent (0 = no limit), then drains. Unlike
// the open loop it runs at normal priority: it shares the CPUs with the
// server as any client would.
func closedLoop(conn *udpConn, qs []query, offset, window int, dur time.Duration, count int) (*loopStats, error) {
	s := &loopStats{}
	sentAt := make([]int64, 1<<16) // send time per outstanding ID, 0 when none
	reaped := make([]bool, 1<<16)  // declared lost and not sent again since
	wi := make([]int32, 1<<16)
	fifo := make([]uint16, 0, 4*window) // outstanding IDs in send order
	head := 0
	sendBuf := make([]byte, 0, 512)
	buf := make([]byte, 65536)
	if err := conn.setTimeout(10 * time.Millisecond); err != nil {
		return nil, err
	}
	var nextID uint16
	t0 := time.Now()
	deadline := t0.Add(dur)
	outstanding := 0
	for {
		now := time.Now()
		sending := (dur <= 0 || now.Before(deadline)) && (count <= 0 || int(s.sent) < count)
		for sending && outstanding < window {
			id := nextID
			nextID++
			if sentAt[id] != 0 {
				break // ID still outstanding after a full wrap: drain first
			}
			qi := (offset + int(s.sent)) % len(qs)
			wi[id] = int32(qi)
			sentAt[id] = now.UnixNano()
			reaped[id] = false
			if err := conn.write(patch(sendBuf, qs[qi].wire, id)); err != nil {
				return nil, err
			}
			if head > 0 && len(fifo) == cap(fifo) {
				fifo = append(fifo[:0], fifo[head:]...)
				head = 0
			}
			fifo = append(fifo, id)
			outstanding++
			s.sent++
			sending = count <= 0 || int(s.sent) < count
		}
		if outstanding == 0 {
			break
		}
		k, err := conn.read(buf)
		rx := time.Now().UnixNano()
		switch {
		case err == errTimeout:
		case err != nil:
			return nil, err
		case k < 12:
			s.stray(k)
		default:
			id := binary.BigEndian.Uint16(buf)
			switch t := sentAt[id]; {
			case t != 0:
				sentAt[id] = 0
				outstanding--
				s.judge(&qs[wi[id]], id, buf[:k], time.Duration(rx-t))
			case reaped[id]:
				// A late answer to a query already counted as lost.
				reaped[id] = false
			default:
				s.stray(k)
			}
		}
		// Drop answered IDs off the front; every query that has waited
		// answerLimit is lost.
		for head < len(fifo) {
			id := fifo[head]
			t := sentAt[id]
			if t != 0 && rx-t < int64(answerLimit) {
				break
			}
			if t != 0 {
				sentAt[id] = 0
				reaped[id] = true
				outstanding--
				s.lost++
			}
			head++
		}
	}
	s.elapsed = time.Since(t0)
	return s, nil
}
