package main

import (
	"fmt"
	"runtime/metrics"

	"leveldbpp/internal/core"
	lsmmetrics "leveldbpp/internal/metrics"
)

// layerProbe gathers the per-layer metrics of a traced run. It adds no
// instrumentation to the program: it reads the tracer's per-operation
// phase timings and counters, the engine's I/O statistics and event
// counts, runtime/metrics, and timings the benchmark takes around each
// HTTP round trip and around the server handler's ServeHTTP.
//
// Two spans are used. Metrics of one operation kind, and the write-side
// metrics, cover every traced operation: each kind, and every write, runs
// in only one of the main and post phases. Throughput-side metrics (server,
// block reads per operation, cache hit ratio, runtime) cover the main
// phase only, like ops_per_s and cpu_us_per_op.
//
// The forced compaction between the phases is the benchmark's, not the
// workload's, so it runs untraced and its I/O is left out: snapshots are
// taken at the start (0), at the end of the main phase (main), at the
// start of the post phase (post) and at the end (1).
type layerProbe struct {
	stats0, statsMain, statsPost, stats1     core.Stats
	events0, eventsMain, eventsPost, events1 map[lsmmetrics.EventType]int64
	rt0, rtMain                              rtSample
	heapPeak                                 uint64

	mainOps       int
	lookupResults int64

	serve0, served0 int64
	serveNS, served int64
	rttNS           int64
	mainCoreUS      float64 // Σ core.DB operation time in the main phase

	traces map[string]*opTraces
}

// opTraces sums the traces of one operation kind.
type opTraces struct {
	n        int64
	totalUS  float64
	phaseUS  map[string]float64
	phaseCnt map[string]int64
	ctr      lsmmetrics.Counters
}

type rtSample struct {
	gcCycles, allocBytes uint64
	gcCPU                float64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() (rtSample, uint64) {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	var gcCPU float64
	if s[2].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[2].Value.Float64()
	}
	return rtSample{gcCycles: u(0), allocBytes: u(1), gcCPU: gcCPU}, u(3)
}

// begin opens the main-phase span and starts tracing every operation.
func (p *layerProbe) begin(db *core.DB, d driver, tr *lsmmetrics.Tracer) {
	p.stats0 = db.Stats()
	p.events0 = db.EventLog().Counts()
	p.rt0, p.heapPeak = readRuntime()
	if hd, ok := d.(*httpDriver); ok {
		hd.rtt = 0
		p.serve0, p.served0 = hd.timed.serveNS.Load(), hd.timed.served.Load()
	}
	tr.SetRate(1)
}

// mainDone closes the main-phase span and pauses tracing.
func (p *layerProbe) mainDone(db *core.DB, d driver, ops int, tr *lsmmetrics.Tracer) {
	tr.SetRate(0)
	p.eventsMain = db.EventLog().Counts()
	p.sampleHeap()
	for _, b := range tr.Breakdown() {
		if b.Op != lsmmetrics.OpCompact.String() {
			p.mainCoreUS += b.TotalUS
		}
	}
	p.mainOps = ops
	p.statsMain = db.Stats()
	p.rtMain, _ = readRuntime()
	if hd, ok := d.(*httpDriver); ok {
		p.serveNS = hd.timed.serveNS.Load() - p.serve0
		p.served = hd.timed.served.Load() - p.served0
		p.rttNS = int64(hd.rtt)
	}
}

func (p *layerProbe) sampleHeap() {
	if _, h := readRuntime(); h > p.heapPeak {
		p.heapPeak = h
	}
}

// observe is called after each traced operation that succeeded.
func (p *layerProbe) observe(o *op, i int) {
	if o.kind == opLookup {
		p.lookupResults += int64(len(o.want))
	}
	if i%64 == 0 {
		p.sampleHeap()
	}
}

// postStart resumes tracing for the post phase.
func (p *layerProbe) postStart(db *core.DB, tr *lsmmetrics.Tracer) {
	p.statsPost = db.Stats()
	p.eventsPost = db.EventLog().Counts()
	tr.SetRate(1)
}

// end closes the post-phase span and stops tracing.
func (p *layerProbe) end(db *core.DB, tr *lsmmetrics.Tracer) error {
	tr.SetRate(0)
	p.stats1 = db.Stats()
	p.events1 = db.EventLog().Counts()
	return p.collectTraces(tr)
}

// collectTraces sums the ring's per-trace phase times and counters by
// operation, and checks them against the tracer's own aggregate so a ring
// that dropped traces cannot go unnoticed.
func (p *layerProbe) collectTraces(tr *lsmmetrics.Tracer) error {
	p.traces = map[string]*opTraces{}
	for _, rec := range tr.Slow() {
		t := p.traces[rec.Op]
		if t == nil {
			t = &opTraces{phaseUS: map[string]float64{}, phaseCnt: map[string]int64{}}
			p.traces[rec.Op] = t
		}
		t.n++
		t.totalUS += rec.TotalUS
		for _, ph := range rec.Phases {
			t.phaseUS[ph.Phase] += ph.US
			t.phaseCnt[ph.Phase] += int64(ph.Count)
		}
		if c := rec.IO; c != nil {
			t.ctr.BlockReads += c.BlockReads
			t.ctr.CacheHits += c.CacheHits
			t.ctr.BloomProbes += c.BloomProbes
			t.ctr.BloomNegatives += c.BloomNegatives
			t.ctr.BloomFalsePositives += c.BloomFalsePositives
			t.ctr.ZoneMapPrunes += c.ZoneMapPrunes
			t.ctr.PointGets += c.PointGets
			t.ctr.EntriesDecoded += c.EntriesDecoded
			t.ctr.PostingEntries += c.PostingEntries
			t.ctr.Validations += c.Validations
		}
	}
	for _, b := range tr.Breakdown() {
		if t := p.traces[b.Op]; t == nil || t.n != b.Count {
			return fmt.Errorf("trace ring kept %d of %d %s traces", p.op(b.Op).n, b.Count, b.Op)
		}
	}
	return nil
}

func (p *layerProbe) op(name string) *opTraces {
	if t := p.traces[name]; t != nil {
		return t
	}
	return &opTraces{phaseUS: map[string]float64{}, phaseCnt: map[string]int64{}}
}

// topLevelUS sums the phases that count toward an operation's wall clock.
func (t *opTraces) topLevelUS() float64 {
	var s float64
	for ph := lsmmetrics.Phase(0); ph < lsmmetrics.NumPhases; ph++ {
		if ph.TopLevel() {
			s += t.phaseUS[ph.String()]
		}
	}
	return s
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints, in the
// order BENCHMARK.json declares them.
var layerMetrics = []layerMetric{
	{"server.serve_us", "us"},
	{"server.self_us", "us"},
	{"server.transport_us", "us"},
	{"core.put_us", "us"},
	{"core.get_us", "us"},
	{"core.lookup_us", "us"},
	{"core.rangelookup_us", "us"},
	{"core.self_us_per_put", "us"},
	{"core.self_us_per_lookup", "us"},
	{"core.index_update_us_per_put", "us"},
	{"core.validate_us_per_lookup", "us"},
	{"core.validations_per_result", "ratio"},
	{"wal.append_us_per_put", "us"},
	{"skiplist.insert_us_per_put", "us"},
	{"skiplist.probe_us_per_get", "us"},
	{"lsm.rotate_s", "s"},
	{"lsm.compact_merge_s", "s"},
	{"lsm.compact_write_s", "s"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.compaction_read_mb", "MB"},
	{"lsm.compaction_write_mb", "MB"},
	{"lsm.probe_us_per_get", "us"},
	{"sstable.block_reads_per_op", "count"},
	{"sstable.block_read_kb_per_op", "KB"},
	{"sstable.block_load_us", "us"},
	{"sstable.entries_decoded_per_get", "count"},
	{"sstable.compact_write_us_per_block", "us"},
	{"sstable.zone_prunes_per_lookup", "count"},
	{"bloom.probes_per_lookup", "count"},
	{"bloom.false_positive_ratio", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.hit_us", "us"},
	{"postings.decode_us_per_lookup", "us"},
	{"postings.merge_us_per_lookup", "us"},
	{"postings.entries_decoded_per_lookup", "count"},
	{"postings.fragments_merged", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead", "ratio"},
}

// values computes every per-layer metric; untracedOpsPerS is the main
// phase's throughput in the untraced pass of the same run.
func (p *layerProbe) values(tracedOpsPerS, untracedOpsPerS float64) map[string]float64 {
	put, get, lk, rl, cp := p.op("put"), p.op("get"), p.op("lookup"), p.op("rangelookup"), p.op("compact")
	puts, gets, lks := float64(put.n), float64(get.n), float64(lk.n)
	sum := func(ts []*opTraces, f func(*opTraces) float64) float64 {
		var s float64
		for _, t := range ts {
			s += f(t)
		}
		return s
	}
	all := []*opTraces{put, get, lk, rl}
	phaseAll := func(ph string) float64 {
		return sum(append(all, cp), func(t *opTraces) float64 { return t.phaseUS[ph] })
	}
	cntAll := func(ph string) float64 {
		return sum(append(all, cp), func(t *opTraces) float64 { return float64(t.phaseCnt[ph]) })
	}
	d := func(f func(s core.Stats) int64) float64 {
		return float64(f(p.statsMain) - f(p.stats0) + f(p.stats1) - f(p.statsPost))
	}
	events := func(e lsmmetrics.EventType) float64 {
		return float64(p.eventsMain[e] - p.events0[e] + p.events1[e] - p.eventsPost[e])
	}
	dMain := func(f func(s core.Stats) int64) float64 { return float64(f(p.statsMain) - f(p.stats0)) }
	both := func(f func(sn *lsmmetrics.Snapshot) int64) func(core.Stats) int64 {
		return func(s core.Stats) int64 { return f(&s.Primary) + f(&s.Index) }
	}
	blockReads := dMain(both(func(s *lsmmetrics.Snapshot) int64 { return s.BlockReads }))
	blockReadBytes := dMain(both(func(s *lsmmetrics.Snapshot) int64 { return s.BlockReadBytes }))
	compWrites := d(both(func(s *lsmmetrics.Snapshot) int64 { return s.CompactionWrites }))
	hits := dMain(both(func(s *lsmmetrics.Snapshot) int64 { return s.CacheHits }))
	misses := dMain(both(func(s *lsmmetrics.Snapshot) int64 { return s.CacheMisses }))
	ops := float64(p.mainOps)
	served := float64(p.served)
	serveUS := float64(p.serveNS) / 1e3
	probe := func(t *opTraces, phs ...string) float64 {
		var s float64
		for _, ph := range phs {
			s += t.phaseUS[ph]
		}
		return s
	}
	return map[string]float64{
		"server.serve_us":                     div(serveUS, served),
		"server.self_us":                      div(serveUS-p.mainCoreUS, served),
		"server.transport_us":                 div(float64(p.rttNS)/1e3-serveUS, served),
		"core.put_us":                         div(put.totalUS, puts),
		"core.get_us":                         div(get.totalUS, gets),
		"core.lookup_us":                      div(lk.totalUS, lks),
		"core.rangelookup_us":                 div(rl.totalUS, float64(rl.n)),
		"core.self_us_per_put":                div(put.totalUS-put.topLevelUS(), puts),
		"core.self_us_per_lookup":             div(lk.totalUS-lk.topLevelUS(), lks),
		"core.index_update_us_per_put":        div(put.phaseUS["index_update"], puts),
		"core.validate_us_per_lookup":         div(lk.phaseUS["validate"], lks),
		"core.validations_per_result":         div(float64(lk.ctr.Validations), float64(p.lookupResults)),
		"wal.append_us_per_put":               div(put.phaseUS["wal"], puts),
		"skiplist.insert_us_per_put":          div(put.phaseUS["mem_insert"], puts),
		"skiplist.probe_us_per_get":           div(probe(get, "mem_probe", "imm_probe"), gets),
		"lsm.rotate_s":                        put.phaseUS["rotate"] / 1e6,
		"lsm.compact_merge_s":                 cp.phaseUS["compact_merge"] / 1e6,
		"lsm.compact_write_s":                 cp.phaseUS["compact_write"] / 1e6,
		"lsm.flushes":                         events(lsmmetrics.EventFlushDone),
		"lsm.compactions":                     events(lsmmetrics.EventCompactionDone),
		"lsm.compaction_read_mb":              d(both(func(s *lsmmetrics.Snapshot) int64 { return s.CompactionReadBytes })) / (1 << 20),
		"lsm.compaction_write_mb":             d(both(func(s *lsmmetrics.Snapshot) int64 { return s.CompactionWriteBytes })) / (1 << 20),
		"lsm.probe_us_per_get":                div(probe(get, "mem_probe", "imm_probe", "l0_probe", "level_probe"), gets),
		"sstable.block_reads_per_op":          div(blockReads, ops),
		"sstable.block_read_kb_per_op":        div(blockReadBytes/1024, ops),
		"sstable.block_load_us":               div(phaseAll("block_load"), cntAll("block_load")),
		"sstable.entries_decoded_per_get":     div(float64(get.ctr.EntriesDecoded), gets),
		"sstable.compact_write_us_per_block":  div(cp.phaseUS["compact_write"], compWrites),
		"sstable.zone_prunes_per_lookup":      div(float64(lk.ctr.ZoneMapPrunes), lks),
		"bloom.probes_per_lookup":             div(float64(lk.ctr.BloomProbes), lks),
		"bloom.false_positive_ratio":          div(float64(lk.ctr.BloomFalsePositives), float64(lk.ctr.BloomFalsePositives+lk.ctr.BloomNegatives)),
		"cache.hit_ratio":                     div(hits, hits+misses),
		"cache.hit_us":                        div(phaseAll("cache_hit"), cntAll("cache_hit")),
		"postings.decode_us_per_lookup":       div(lk.phaseUS["postings_decode"], lks),
		"postings.merge_us_per_lookup":        div(lk.phaseUS["posting_merge"], lks),
		"postings.entries_decoded_per_lookup": div(float64(lk.ctr.PostingEntries), lks),
		"postings.fragments_merged":           d(func(s core.Stats) int64 { return s.Index.FragmentsMerged }),
		"runtime.alloc_kb_per_op":             div(float64(p.rtMain.allocBytes-p.rt0.allocBytes)/1024, ops),
		"runtime.gc_cycles":                   float64(p.rtMain.gcCycles - p.rt0.gcCycles),
		"runtime.gc_cpu_s":                    p.rtMain.gcCPU - p.rt0.gcCPU,
		"runtime.heap_peak_mb":                float64(p.heapPeak) / (1 << 20),
		"trace.overhead":                      div(untracedOpsPerS, tracedOpsPerS),
	}
}
