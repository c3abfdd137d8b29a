package main

import (
	"net"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

// TestSmokeEveryWorkload runs every workload at tiny size, untraced and
// traced, and requires a correct run that emits exactly the metrics
// BENCHMARK.json declares for the mode, each with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("launches rootserve and runs a campaign")
	}
	runtime.LockOSThread() // as main does: the servers' parent-death signal follows this thread
	bin := filepath.Join(t.TempDir(), "rootserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/rootserve").CombinedOutput(); err != nil {
		t.Fatalf("building rootserve: %v\n%s", err, out)
	}
	for _, workload := range []string{"serve-junk", "serve-hot", "study"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: workload, seed: 7, seconds: 1, trace: trace, smoke: true, root: "..", rootserve: bin}
			r, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v",
					workload, trace, r.res.Correct, r.res.Attempted, r.res.Failed, r.notes)
			}
			if err := checkDeclared(filepath.Join("..", "BENCHMARK.json"), trace, r.res.Metrics); err != nil {
				t.Errorf("%s trace=%v: %v", workload, trace, err)
			}
		}
	}
}

// TestCorruptedAnswerFails feeds the serve checker real answers for one
// query of each class, then corrupted copies of them: every corruption must
// count as a failure.
func TestCorruptedAnswerFails(t *testing.T) {
	const tlds = 200
	qs, err := buildQueries(tlds, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, tlds)
	seen := map[answerClass]bool{}
	for i := range qs {
		q := &qs[i]
		if seen[q.class] {
			continue
		}
		seen[q.class] = true
		const id = 0x1234
		m, err := dnswire.Unpack(patch(nil, q.wire, id))
		if err != nil {
			t.Fatal(err)
		}
		good, err := srv.Handle(m, false).Pack()
		if err != nil {
			t.Fatal(err)
		}
		var s loopStats
		if !s.judge(q, id, good, time.Millisecond) {
			t.Fatalf("%s %v: correct answer rejected: %s", q.class, q.qtype, s.firstErr)
		}
		corruptions := map[string]func(b []byte){
			"id":       func(b []byte) { b[1] ^= 1 },
			"rcode":    func(b []byte) { b[3] ^= 0x02 },
			"question": func(b []byte) { b[13] ^= 0x20 ^ 0x01 },
			"truncate": func(b []byte) { b[2] |= 0x02 },
			"empty":    func(b []byte) { clear(b[6:12]) },
			"query":    func(b []byte) { b[2] &^= 0x80 },
		}
		for name, corrupt := range corruptions {
			bad := append([]byte(nil), good...)
			corrupt(bad)
			var s loopStats
			if s.judge(q, id, bad, time.Millisecond) || s.failed() != 1 {
				t.Errorf("%s %v: %s corruption not counted as a failure", q.class, q.qtype, name)
			}
		}
		var late loopStats
		if late.judge(q, id, good, answerLimit+time.Millisecond) || late.failed() != 1 {
			t.Errorf("%s %v: late answer not counted as a failure", q.class, q.qtype)
		}
	}
	if len(seen) != 3 {
		t.Fatalf("corpus covered classes %v, want all three", seen)
	}
}

// TestLateAnswerCountedOnce answers the first query of a closed loop only
// after answerLimit, when it has already been declared lost: the late answer
// must not count as a second failure.
func TestLateAnswerCountedOnce(t *testing.T) {
	const tlds = 200
	qs, err := buildQueries(tlds, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := testServer(t, tlds)
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	// The peer holds the answer to the first query until the second query
	// arrives, which the loop sends only once it has declared the first
	// lost, then sends both answers in order.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var resps [2][]byte
		var from [2]*net.UDPAddr
		buf := make([]byte, 512)
		for i := range resps {
			n, addr, err := peer.ReadFromUDP(buf)
			if err != nil {
				return
			}
			m, err := dnswire.Unpack(buf[:n])
			if err != nil {
				return
			}
			if resps[i], err = srv.Handle(m, false).Pack(); err != nil {
				return
			}
			from[i] = addr
		}
		for i := range resps {
			_, _ = peer.WriteToUDP(resps[i], from[i])
		}
	}()
	var conn *udpConn
	for port := 40000; conn == nil && port < 40100; port++ {
		conn, _ = dialUDP(port, peer.LocalAddr().(*net.UDPAddr))
	}
	if conn == nil {
		t.Fatal("no free client port")
	}
	defer conn.close()
	s, err := closedLoop(conn, qs, 0, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if s.sent != 2 || s.lost != 1 || s.ok != 1 || s.failed() != 1 {
		t.Errorf("sent %d ok %d late %d lost %d bad %d (%s), want 2 sent, 1 ok, 1 lost, 1 failure",
			s.sent, s.ok, s.late, s.lost, s.bad, s.firstErr)
	}
}

// testServer builds the zone rootserve would serve with tlds delegations.
func testServer(t *testing.T, tlds int) *dnsserver.Server {
	t.Helper()
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = tlds
	signer, err := dnssec.NewSigner(nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	signed, err := signer.Sign(zone.SynthesizeRoot(cfg), now)
	if err != nil {
		t.Fatal(err)
	}
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, now)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dnsserver.New(dnsserver.Config{
		Zone:       z,
		ExtraZones: []*zone.Zone{zone.SynthesizeRootServersNet(cfg.Serial, false)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestSupported(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want float64
	}{{0.99, 5000, 0.99}, {0.99, 1000, 0.99}, {0.99, 500, 0.98}, {0.9, 50, 0.8}, {0.99, 20, 0.5}} {
		if got := supported(c.q, c.n); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}
