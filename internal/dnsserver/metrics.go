package dnsserver

import "repro/internal/telemetry"

// dns/queries is stream-class: the campaign's wire-check battery issues a
// deterministic query sequence per tick, serially, so the total is a pure
// function of the schedule. zone/records_examined is the same kind of fact:
// the zone records the answers to those queries looked at, a work counter
// that moves with lookup cost but not with timing. Query latency is wall-clock and only records
// behind the telemetry enable gate. The cache counters are volatile-class:
// hit/miss splits depend on packet arrival order across UDP shards.
var (
	mQueries         = telemetry.NewCounter("dns/queries")
	mRecordsExamined = telemetry.NewCounter("zone/records_examined")
	mQueryDur        = telemetry.NewHistogram("wallclock/dns_query_us")
	mCacheHits       = telemetry.NewCounter("dns/cache/hits")
	mCacheMisses     = telemetry.NewCounter("dns/cache/misses")
	mCacheEvictions  = telemetry.NewCounter("dns/cache/evictions")
)

// RRL counters are process-class: every verdict is a pure function of
// (config, per-bucket arrival index), so a serial offered load reproduces
// them byte-identically across runs and shard counts — they are what the
// check.sh adversity step diffs. Sheds and TCP rejects are volatile: they
// exist precisely because queue drain and accept timing are wall-clock
// facts.
var (
	mRRLDrops     = telemetry.NewCounter("rrl/drops")
	mRRLSlips     = telemetry.NewCounter("rrl/slips")
	mRRLEvictions = telemetry.NewCounter("rrl/evictions")
	mSheds        = telemetry.NewCounter("serve/sheds")
	mTCPRejects   = telemetry.NewCounter("serve/tcp_rejects")
)
