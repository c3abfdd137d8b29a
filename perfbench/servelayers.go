package main

import (
	"runtime"
	"time"

	"repro/internal/dnssec"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

// serveLayers reports the serve path's per-layer metrics for a traced pass:
// the rootserve process's cache, shed and CPU figures and the cost of the
// benchmark's own generator come from the pass itself; the zone build and
// the per-query layers are timed in-process by calling their public
// functions on the stream the saturation phase sent, against the same zone
// rootserve builds.
func serveLayers(p serveParams, qs []query, sp *servePass, r *run) error {
	lookups := float64(max(sp.hits+sp.misses, 1))
	r.set("dnsserver.cache_hit_ratio", "ratio", float64(sp.hits)/lookups)
	r.set("dnsserver.shed_ratio", "ratio", float64(sp.sheds)/lookups)
	r.set("dnsserver.cpu_us_per_query", "us", float64(sp.serverCPU.Nanoseconds())/1e3/float64(max(sp.sat.ok, 1)))
	r.set("dnsserver.busy_cores", "cores", sp.serverCPU.Seconds()/sp.sat.elapsed.Seconds())
	r.set("dnsserver.warm_s", "s", median(append([]float64(nil), sp.warms...)))
	r.set("bench.gen_cpu_us_per_query", "us", float64(sp.selfCPU.Nanoseconds())/1e3/float64(max(sp.sat.sent, 1)))
	lag := append([]float64(nil), sp.open.lag...)
	r.set("bench.gen_lag_ms", "ms", quantile(lag, supported(0.9, len(lag))))

	// The zone, built as rootserve builds it.
	cfg := zone.DefaultRootConfig()
	cfg.TLDCount = p.tlds
	now := time.Now().UTC()
	cfg.Serial = zone.SerialForDate(now.Year(), int(now.Month()), now.Day(), 0)
	t0 := time.Now()
	unsigned := zone.SynthesizeRoot(cfg)
	r.set("zone.synth_s", "s", since(t0))
	signer, err := dnssec.NewSigner(nil)
	if err != nil {
		return err
	}
	t0 = time.Now()
	signed, err := signer.Sign(unsigned, now)
	if err != nil {
		return err
	}
	r.set("dnssec.sign_s", "s", since(t0))
	t0 = time.Now()
	z, err := zonemd.AttachAndSign(signed, signer, zonemd.StateVerifiable, now)
	if err != nil {
		return err
	}
	r.set("zonemd.digest_s", "s", since(t0))
	r.set("zone.records", "count", float64(len(z.Records)))
	srv, err := dnsserver.New(dnsserver.Config{
		Zone:       z,
		ExtraZones: []*zone.Zone{zone.SynthesizeRootServersNet(cfg.Serial, false)},
		Identity:   dnsserver.Identity{Hostname: "local1.root.example", Version: "repro-rootserve-1.0"},
		AllowAXFR:  true,
	})
	if err != nil {
		return err
	}

	// The stream: the saturation phase's queries in send order, as many as
	// Handle gets through in the layer budget.
	var wires [][]byte
	var msgs []*dnswire.Message
	var resps []*dnswire.Message
	var ms0, ms1 runtime.MemStats
	var handle time.Duration
	var allocs uint64
	for i := 0; i < int(sp.sat.sent) && (i == 0 || handle < p.layerTime); i++ {
		w := qs[(sp.satOffset+i)%len(qs)].wire
		m, err := dnswire.Unpack(w)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		resp := srv.Handle(m, false)
		handle += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		wires, msgs, resps = append(wires, w), append(msgs, m), append(resps, resp)
	}
	n := float64(len(msgs))
	r.set("dnsserver.handle_us", "us", float64(handle.Nanoseconds())/1e3/n)
	r.set("dnsserver.alloc_b_per_query", "B", float64(allocs)/n)

	r.set("dnswire.unpack_us", "us", perCall(len(wires), func(i int) {
		_, _ = dnswire.Unpack(wires[i])
	}))
	buf := make([]byte, 0, 4096)
	bytes := 0
	for _, resp := range resps {
		if buf, err = resp.AppendPack(buf[:0]); err != nil {
			return err
		}
		bytes += len(buf)
	}
	r.set("dnswire.resp_bytes", "B", float64(bytes)/n)
	r.set("dnswire.pack_us", "us", perCall(len(resps), func(i int) {
		buf, _ = resps[i].AppendPack(buf[:0])
	}))
	r.set("zone.lookup_us", "us", perCall(len(msgs), func(i int) {
		q := msgs[i].Questions[0]
		z.Lookup(q.Name, q.Type)
	}))
	r.set("zone.delegation_us", "us", perCall(len(msgs), func(i int) {
		z.Delegation(msgs[i].Questions[0].Name)
	}))
	r.note("serve layer bases: %d stream queries through Handle, %d answers, %.0f us rootserve CPU over %.3f s",
		len(msgs), sp.sat.ok, float64(sp.serverCPU.Microseconds()), sp.sat.elapsed.Seconds())
	return nil
}

// perCall times f over indexes 0..n-1, repeating the sweep until at least
// 50 ms have passed, and returns the mean microseconds per call.
func perCall(n int, f func(i int)) float64 {
	calls := 0
	t0 := time.Now()
	for calls == 0 || time.Since(t0) < 50*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(calls)
}
