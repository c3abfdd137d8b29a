package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/rss"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traceroute"
	"repro/internal/vantage"
	"repro/internal/zone"
	"repro/internal/zonemd"
)

// studyParams sizes the study workload: a reduced VP population on the
// study's default thinned schedule.
type studyParams struct {
	vpScale    int
	scale      int
	start, end time.Time // zero = the paper's campaign window
	builds     int       // world builds whose times give setup_s
	replays    int       // replays of each recording
	samples    int       // traceroute/catchment calls timed in the layer pass
}

func studyParamsFor(smoke bool) studyParams {
	if smoke {
		return studyParams{vpScale: 64, scale: 96, builds: 1, replays: 1, samples: 200,
			start: time.Date(2023, 7, 24, 0, 0, 0, 0, time.UTC), end: time.Date(2023, 8, 7, 0, 0, 0, 0, time.UTC)}
	}
	return studyParams{vpScale: 16, scale: 96, builds: 15, replays: 5, samples: 4000}
}

// configs returns the campaign, topology and VP configurations rootstudy
// would use for this seed: wire check on, one worker per CPU.
func (p studyParams) configs(seed int64) (measure.Config, topology.Config, vantage.Config) {
	mCfg := measure.DefaultConfig()
	mCfg.Seed, mCfg.Scale = seed, p.scale
	mCfg.WireCheck = true
	mCfg.Workers = runtime.NumCPU()
	mCfg.ErrorBudget = -1 // count degraded outcomes as failures instead of aborting
	if !p.start.IsZero() {
		mCfg.Start, mCfg.End = p.start, p.end
	}
	topoCfg := topology.DefaultConfig()
	topoCfg.Seed = seed
	vpCfg := vantage.DefaultConfig()
	vpCfg.Seed, vpCfg.Scale = seed, p.vpScale
	return mCfg, topoCfg, vpCfg
}

// studyPass is what one measured pass of the study yields.
type studyPass struct {
	setups      []float64 // seconds per world build
	setupCPU    []float64 // CPU seconds per world build
	world       *measure.World
	tickMs      []float64     // wall time of each campaign tick
	campaignS   float64       // campaign wall time, all cycles
	campaignCPU time.Duration // this process's CPU time in the campaigns, recording included
	replayed    int64         // events replayed, all replays
	replayS     float64       // replay wall time, all replays, report rendering included
	replayCPU   time.Duration // this process's CPU time in the replays
	steal       [2]int64      // stolen clock ticks during the campaigns and during the replays
	cycles      int
	probes      int64 // recorded, all cycles
	transfers   int64
	wireQueries int
	failed      int64 // degraded outcomes, wire-check failures, replay mismatches
	firstErr    string
	fileBytes   int64 // size of the last recording
	rssMB       float64
	traced      *studyTrace // nil when untraced
}

// studyTrace holds what the traced pass measures inside the campaign and
// the replays.
type studyTrace struct {
	recordTime     time.Duration // inside the dataset writer
	dispatchTime   time.Duration // inside the analysis handlers during replays
	dispatchEvents int64
	renderMs       []float64
	decodeRates    []float64 // replays into a no-op handler: events per second
	decodeAllocs   []float64 // ... and heap bytes per event
	allocBytes     uint64    // heap allocated across Campaign.Run
	gcCPU, allCPU  float64
	zoneVersions   int64
	probeHist      histDelta
	transferHist   histDelta
	wirecheckHist  histDelta
}

// histDelta is the growth of one wall-clock histogram.
type histDelta struct{ count, sum int64 }

func (h histDelta) mean() float64 { return float64(h.sum) / float64(max(h.count, 1)) }

// studyWorkload runs the study. Untraced, it reports the end-to-end metrics
// of one pass; traced, it repeats the pass with the program's telemetry on
// and timing wrappers around the recording and analysis handlers, reports
// the difference as the tracing overhead, and adds the per-layer metrics.
func studyWorkload(o options, r *run) error {
	p := studyParamsFor(o.smoke)
	base, err := runStudyPass(o, p, false)
	if err != nil {
		return err
	}
	reportStudyPass(r, "untraced", base)
	e2e := studyE2E(base)
	if !o.trace {
		for name, v := range e2e {
			r.set(name, endToEndUnits[name], v)
		}
		return nil
	}
	traced, err := studyLayerPass(o, p, r)
	if err != nil {
		return err
	}
	reportOverhead(r, e2e, studyE2E(traced))
	// The rootserve process and generator layers are not on this
	// workload's path; a smoke-size serve-junk pass fills them so every
	// traced run carries every per-layer metric.
	r.note("reference: serve-layer metrics come from a smoke-size serve-junk pass, not from this workload")
	so := o
	so.workload, so.smoke, so.seconds = "serve-junk", true, 2
	sp := serveParamsFor(so.workload, true)
	qs, err := buildQueries(sp.tlds, sp.corpus, o.seed)
	if err != nil {
		return err
	}
	pass, err := runServePass(so, sp, qs, true)
	if err != nil {
		return err
	}
	reportServePass(r, "reference serve-junk", sp, qs, pass)
	return serveLayers(sp, qs, pass, r)
}

// studyE2E derives the end-to-end metrics of one pass. Set-up time is the
// median CPU time of a world build. Throughput is the probes carried end
// to end, measured, recorded and replayed through every analysis, per
// second of this process's CPU time in the campaigns and the replays. CPU
// time does not count the time the hypervisor gives to other guests; the
// wall-clock figures are printed.
func studyE2E(sp *studyPass) map[string]float64 {
	return map[string]float64{
		"setup_s":              median(append([]float64(nil), sp.setupCPU...)),
		"throughput_per_cpu_s": float64(sp.probes) / (sp.campaignCPU + sp.replayCPU).Seconds(),
		"peak_rss_mb":          sp.rssMB,
	}
}

// reportStudyPass tallies a pass's outcomes and notes its bases.
func reportStudyPass(r *run, label string, sp *studyPass) {
	r.tally(sp.probes, sp.failed)
	if sp.firstErr != "" {
		r.note("%s: first failure: %s", label, sp.firstErr)
	}
	events := sp.probes + sp.transfers
	r.note("%s: %d VPs, %d cycles: %d probes (throughput base) + %d transfers recorded (%d events, %d wire-check queries) in %.3f CPU s; wall-clock campaign_probes_per_s %.1f over %.3f s (not gated)",
		label, len(sp.world.Population.VPs), sp.cycles, sp.probes, sp.transfers, events, sp.wireQueries,
		sp.campaignCPU.Seconds(), float64(sp.probes)/sp.campaignS, sp.campaignS)
	ticks := append([]float64(nil), sp.tickMs...)
	q90, q99 := supported(0.9, len(ticks)), supported(0.99, len(ticks))
	r.note("%s: replays: %d events (%d per replay, report rendered) in %.3f CPU s; wall-clock replay_events_per_s %.1f (not gated)",
		label, sp.replayed, events/int64(max(sp.cycles, 1)), sp.replayCPU.Seconds(), float64(sp.replayed)/sp.replayS)
	r.note("%s: campaign tick wall time over n=%d ticks: p50 %.4f ms, tail p%.4g %.4f ms, p%.4g %.4f ms (not gated); world builds %.4v CPU s, wall %.4v s",
		label, len(ticks), quantile(ticks, 0.5), 100*q90, quantile(ticks, q90), 100*q99, quantile(ticks, q99), sp.setupCPU, sp.setups)
	r.note("%s: hypervisor steal share: campaigns %.4f, replays %.4f", label,
		stealShare(0, sp.steal[0], time.Duration(sp.campaignS*float64(time.Second))),
		stealShare(0, sp.steal[1], time.Duration(sp.replayS*float64(time.Second))))
}

// tickClock is a campaign handler that stamps the wall time at which each
// tick's first event is drained. The gap between consecutive stamps is one
// tick period: the previous tick's drain, then this tick's wire check and VP
// fan-out. It also counts degraded outcomes.
type tickClock struct {
	last     int
	stamps   []time.Time
	degraded int64
}

func (t *tickClock) HandleProbe(e measure.ProbeEvent) {
	if e.Tick.Index != t.last || len(t.stamps) == 0 {
		t.last = e.Tick.Index
		t.stamps = append(t.stamps, time.Now())
	}
	if e.Degraded {
		t.degraded++
	}
}

func (t *tickClock) HandleTransfer(e measure.TransferEvent) {
	if e.Degraded {
		t.degraded++
	}
}

// timed wraps a handler and accumulates the time spent inside it.
type timed struct {
	h      measure.Handler
	spent  *time.Duration
	events *int64
}

func (t timed) HandleProbe(e measure.ProbeEvent) {
	t0 := time.Now()
	t.h.HandleProbe(e)
	*t.spent += time.Since(t0)
	*t.events++
}

func (t timed) HandleTransfer(e measure.TransferEvent) {
	t0 := time.Now()
	t.h.HandleTransfer(e)
	*t.spent += time.Since(t0)
	*t.events++
}

// runStudyPass builds the world p.builds times, then repeats cycles of one
// recorded campaign and p.replays replays of the recording until o.seconds
// have passed (at least one cycle).
func runStudyPass(o options, p studyParams, traced bool) (*studyPass, error) {
	seed := int64(o.seed)
	mCfg, topoCfg, vpCfg := p.configs(seed)
	sp := &studyPass{}
	// A world build is one goroutine. The builds run on one CPU so that the
	// collector's work is done there too: its workers on the other CPUs
	// would add CPU time that depends on how the host schedules them.
	procs := runtime.GOMAXPROCS(1)
	for i := 0; i < p.builds; i++ {
		sp.world = nil
		runtime.GC() // every build starts without the previous one's world
		t0, cpu0 := time.Now(), cpuSelf()
		w, err := measure.NewWorld(mCfg, topoCfg, vpCfg)
		if err != nil {
			return nil, err
		}
		sp.setupCPU = append(sp.setupCPU, (cpuSelf() - cpu0).Seconds())
		sp.setups = append(sp.setups, since(t0))
		sp.world = w
	}
	runtime.GOMAXPROCS(procs)
	if traced {
		sp.traced = &studyTrace{}
		telemetry.SetEnabled(true)
		defer telemetry.SetEnabled(false)
	}
	dir := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("study-%d.rgds", os.Getpid()))
	defer os.Remove(path)

	t0 := time.Now()
	var lastCycle time.Duration
	for sp.cycles == 0 || since(t0)+lastCycle.Seconds() <= o.seconds {
		c0 := time.Now()
		if err := studyCycle(sp, mCfg, p, path); err != nil {
			return nil, err
		}
		sp.cycles++
		lastCycle = time.Since(c0)
	}
	var err error
	if sp.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	return sp, nil
}

// studyCycle records one campaign with dataset.Writer, as rootmeasure does,
// then replays the recording through every analysis and renders the
// report, as rootanalyze -workers nproc does, checking the replayed counts.
func studyCycle(sp *studyPass, mCfg measure.Config, p studyParams, path string) error {
	fail := func(n int64, format string, args ...any) {
		sp.failed += n
		if sp.firstErr == "" {
			sp.firstErr = fmt.Sprintf(format, args...)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	writer, err := dataset.NewWriter(f)
	if err != nil {
		return err
	}
	clock := &tickClock{}
	var recorder measure.Handler = writer
	var recorded int64
	tr := sp.traced
	if tr != nil {
		recorder = timed{h: writer, spent: &tr.recordTime, events: &recorded}
	}
	campaign := measure.NewCampaign(mCfg, sp.world)

	runtime.GC() // start the campaign without the previous cycle's garbage
	var ms0 runtime.MemStats
	var cpu0 []metrics.Sample
	var snap0 []telemetry.MetricValue
	if tr != nil && sp.cycles == 0 {
		runtime.ReadMemStats(&ms0)
		cpu0 = cpuClasses()
		snap0 = telemetry.Snapshot(telemetry.ScopeAll)
	}
	start, self0, steal0 := time.Now(), cpuSelf(), stealTicks()
	if err := campaign.Run(recorder, clock); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	end := time.Now()
	sp.campaignCPU += cpuSelf() - self0
	sp.steal[0] += stealTicks() - steal0
	if tr != nil && sp.cycles == 0 {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		cpu1 := cpuClasses()
		snap1 := telemetry.Snapshot(telemetry.ScopeAll)
		tr.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		tr.gcCPU = cpu1[0].Value.Float64() - cpu0[0].Value.Float64()
		tr.allCPU = cpu1[1].Value.Float64() - cpu0[1].Value.Float64()
		tr.probeHist = histGrowth(snap0, snap1, "wallclock/probe_us")
		tr.transferHist = histGrowth(snap0, snap1, "wallclock/transfer_us")
		tr.wirecheckHist = histGrowth(snap0, snap1, "wallclock/wirecheck_us")
		tr.zoneVersions = counter(snap1, "cache/zone/misses") - counter(snap0, "cache/zone/misses")
	}
	if err := writer.Close(); err != nil {
		return err
	}
	sp.campaignS += end.Sub(start).Seconds()
	for i := 1; i < len(clock.stamps); i++ {
		sp.tickMs = append(sp.tickMs, float64(clock.stamps[i].Sub(clock.stamps[i-1]))/1e6)
	}
	sp.probes += int64(writer.Probes)
	sp.transfers += int64(writer.Transfers)
	sp.wireQueries += campaign.WireQueries
	if clock.degraded > 0 {
		fail(clock.degraded, "%d degraded campaign outcomes", clock.degraded)
	}
	if n := len(campaign.WireFailures); n > 0 || campaign.WireQueries == 0 {
		fail(int64(max(n, 1)), "wire check: %d queries, failures %v", campaign.WireQueries, campaign.WireFailures)
	}
	if info, err := f.Stat(); err == nil {
		sp.fileBytes = info.Size()
	}
	if tr != nil && sp.cycles == 0 {
		if err := decodeOnly(path, sp.world, tr); err != nil {
			return err
		}
	}

	for i := 0; i < p.replays; i++ {
		events := int64(writer.Probes + writer.Transfers)
		runtime.GC() // start each replay without the previous one's garbage
		t0, cpu0, steal0 := time.Now(), cpuSelf(), stealTicks()
		probes, transfers, report, err := replayAndRender(path, sp.world, tr)
		if err != nil {
			return err
		}
		sp.replayCPU += cpuSelf() - cpu0
		sp.replayS += since(t0)
		sp.replayed += events
		sp.steal[1] += stealTicks() - steal0
		if probes != writer.Probes || transfers != writer.Transfers {
			fail(1, "replayed %d probes + %d transfers, recorded %d + %d", probes, transfers, writer.Probes, writer.Transfers)
		}
		if report == 0 {
			fail(1, "empty report")
		}
	}
	return nil
}

// numAnalyses is how many analysis handlers a replay feeds.
const numAnalyses = 6

// replayAndRender replays the recording at path through the six analyses
// with one block-decode worker per CPU and renders their tables, returning
// the replayed counts and the report's size. Traced, each analysis handler
// call and the rendering are timed into tr.
func replayAndRender(path string, world *measure.World, tr *studyTrace) (probes, transfers, reportBytes int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	reader, err := dataset.NewReader(f, world.Population)
	if err != nil {
		return 0, 0, 0, err
	}
	coverage := analysis.NewCoverage(world.System)
	stability := analysis.NewStability()
	colocation := analysis.NewColocation(world.Population)
	distance := analysis.NewDistance(world.System, world.Population)
	rtt := analysis.NewRTT()
	integrity := analysis.NewIntegrity()
	handlers := []measure.Handler{coverage, stability, colocation, distance, rtt, integrity}
	if tr != nil {
		for i, h := range handlers {
			handlers[i] = timed{h: h, spent: &tr.dispatchTime, events: &tr.dispatchEvents}
		}
	}
	probes, transfers, err = reader.ReplayWith(dataset.ReplayOptions{Workers: runtime.NumCPU()}, handlers...)
	if err != nil {
		return 0, 0, 0, err
	}
	if reader.Torn() {
		return 0, 0, 0, fmt.Errorf("recording torn: %v", reader.TornReason())
	}
	var out bytes.Buffer
	t0 := time.Now()
	for _, write := range []func(io.Writer){
		coverage.WriteTable1, coverage.WriteTable4, stability.WriteFigure3,
		colocation.WriteFigure4, distance.WriteFigure5, rtt.WriteFigure6,
		rtt.WriteFigure14, integrity.WriteTable2, integrity.WriteFigure10,
	} {
		write(&out)
		out.WriteByte('\n')
	}
	if tr != nil {
		tr.renderMs = append(tr.renderMs, float64(time.Since(t0))/1e6)
	}
	return probes, transfers, out.Len(), nil
}

// cpuClasses samples the runtime's GC and total CPU time.
func cpuClasses() []metrics.Sample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s
}

// histGrowth is how much a histogram grew between two snapshots.
func histGrowth(before, after []telemetry.MetricValue, name string) histDelta {
	var d histDelta
	for _, m := range after {
		if m.Name == name {
			d.count, d.sum = m.Count, m.Sum
		}
	}
	for _, m := range before {
		if m.Name == name {
			d.count, d.sum = d.count-m.Count, d.sum-m.Sum
		}
	}
	return d
}

// studyLayerPass runs the traced study pass at p and reports the pipeline's
// per-layer metrics: the world-build steps timed one by one, the campaign's
// own wall-clock histograms and allocation, recording and replay costs, and
// traceroute and catchment selection timed on a sample of the campaign's
// inputs. It returns the traced pass for the overhead comparison.
func studyLayerPass(o options, p studyParams, r *run) (*studyPass, error) {
	seed := int64(o.seed)
	sp, err := runStudyPass(o, p, true)
	if err != nil {
		return nil, err
	}
	reportStudyPass(r, "traced", sp)
	tr := sp.traced
	mCfg, topoCfg, vpCfg := p.configs(seed)

	t0 := time.Now()
	topo := topology.Build(topoCfg)
	r.set("topology.build_s", "s", since(t0))
	sys := rss.Build(topo, seed)
	t0 = time.Now()
	sys.Catchments()
	r.set("anycast.catchment_s", "s", since(t0))
	t0 = time.Now()
	vantage.Generate(topo, vpCfg)
	r.set("vantage.generate_s", "s", since(t0))

	firstProbes := float64(sp.probes) / float64(sp.cycles)
	r.set("measure.probes_per_s", "1/s", float64(sp.probes)/sp.campaignS)
	r.set("measure.probe_us", "us", tr.probeHist.mean())
	r.set("measure.transfer_us", "us", tr.transferHist.mean())
	r.set("measure.wirecheck_ms", "ms", tr.wirecheckHist.mean()/1000)
	r.set("measure.alloc_kb_per_probe", "KB", float64(tr.allocBytes)/1024/firstProbes)
	r.set("runtime.gc_cpu_frac", "ratio", tr.gcCPU/tr.allCPU)
	r.set("measure.zone_versions", "count", float64(tr.zoneVersions))
	zoneMs, err := zoneVersionMs(sp.world, mCfg)
	if err != nil {
		return nil, err
	}
	r.set("measure.zone_version_ms", "ms", zoneMs)

	events := sp.probes + sp.transfers
	r.set("dataset.record_us_per_event", "us", float64(tr.recordTime.Microseconds())/float64(events))
	r.set("dataset.bytes_per_event", "B", float64(sp.fileBytes)/(float64(events)/float64(sp.cycles)))
	r.set("dataset.decode_events_per_s", "1/s", median(tr.decodeRates))
	r.set("dataset.replay_alloc_b_per_event", "B", median(tr.decodeAllocs))
	r.set("analysis.dispatch_us_per_event", "us", float64(tr.dispatchTime.Microseconds())/float64(tr.dispatchEvents/numAnalyses))
	r.set("analysis.render_ms", "ms", median(tr.renderMs))

	selectUs, traceUs := sampleRoutes(sp.world, mCfg, p.samples)
	r.set("anycast.select_us", "us", selectUs)
	r.set("traceroute.run_us", "us", traceUs)
	r.note("traced pipeline bases: %d probe and %d transfer histogram samples, %d wire checks, %d zone versions signed, %d events dispatched per analysis, %d catchment/traceroute samples",
		tr.probeHist.count, tr.transferHist.count, tr.wirecheckHist.count, tr.zoneVersions, tr.dispatchEvents/numAnalyses, p.samples)
	return sp, nil
}

// zoneVersionMs times building one campaign zone version (serial bump,
// DNSSEC signing, ZONEMD digest) at three points of the schedule.
func zoneVersionMs(w *measure.World, mCfg measure.Config) (float64, error) {
	ticks := measure.Ticks(campaignStart(mCfg), campaignEnd(mCfg), mCfg.Scale)
	var ms []float64
	for _, tick := range []measure.Tick{ticks[0], ticks[len(ticks)/2], ticks[len(ticks)-1]} {
		t0 := time.Now()
		base := w.BaseZone
		if zone.SerialCompare(measure.SerialAt(tick.Time), 2023112700) < 0 {
			base = w.BaseZonePre
		}
		signTime := measure.SerialPublishedAt(tick.Time)
		signed, err := w.Signer.Sign(base.BumpSerial(measure.SerialAt(tick.Time)), signTime)
		if err != nil {
			return 0, err
		}
		if _, err := zonemd.AttachAndSign(signed, w.Signer, zonemd.StateAt(tick.Time), signTime); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

func campaignStart(c measure.Config) time.Time {
	if c.Start.IsZero() {
		return measure.StudyStart
	}
	return c.Start
}

func campaignEnd(c measure.Config) time.Time {
	if c.End.IsZero() {
		return measure.StudyEnd
	}
	return c.End
}

// nop is a campaign handler that does nothing.
type nop struct{}

func (nop) HandleProbe(measure.ProbeEvent)       {}
func (nop) HandleTransfer(measure.TransferEvent) {}

// decodeOnly replays the recording at path into a no-op handler three
// times, adding each replay's decoded events per second and heap bytes
// allocated per event to tr.
func decodeOnly(path string, world *measure.World, tr *studyTrace) error {
	for i := 0; i < 3; i++ {
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		reader, err := dataset.NewReader(in, world.Population)
		if err != nil {
			in.Close()
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		probes, transfers, err := reader.ReplayWith(dataset.ReplayOptions{Workers: runtime.NumCPU()}, nop{})
		el := since(t0)
		runtime.ReadMemStats(&ms1)
		in.Close()
		if err != nil {
			return err
		}
		n := float64(probes + transfers)
		tr.decodeRates = append(tr.decodeRates, n/el)
		tr.decodeAllocs = append(tr.decodeAllocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	}
	return nil
}

// sampleRoutes times anycast catchment selection and traceroute expansion on
// n (VP, target, tick) inputs drawn from the campaign's own schedule,
// returning the mean microseconds per call of each.
func sampleRoutes(w *measure.World, mCfg measure.Config, n int) (selectUs, traceUs float64) {
	ticks := measure.Ticks(campaignStart(mCfg), campaignEnd(mCfg), mCfg.Scale)
	targets := rss.AllServiceAddrs()
	vps := w.Population.VPs
	cfg := traceroute.DefaultConfig()
	var sel, trc time.Duration
	traced := 0
	for i := 0; i < n; i++ {
		vp := &vps[i%len(vps)]
		target := targets[(i/len(vps))%len(targets)]
		tick := ticks[(i*7919)%len(ticks)]
		catch := w.Catchments[target.Letter][target.Family]
		t0 := time.Now()
		route, ok := catch.SelectAt(vp.ASN, tick.Index, mCfg.Seed, mCfg.Scale)
		sel += time.Since(t0)
		if !ok {
			continue
		}
		site, _ := w.System.Deployments[target.Letter].SiteByID(route.Origin.SiteID)
		t0 = time.Now()
		traceroute.Run(w.Topo, route, site, target.Family, cfg, mCfg.Seed, tick.Index)
		trc += time.Since(t0)
		traced++
	}
	return float64(sel.Nanoseconds()) / 1e3 / float64(n), float64(trc.Nanoseconds()) / 1e3 / float64(max(traced, 1))
}
