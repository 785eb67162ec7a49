package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
)

// reps is how many times a run repeats setup, main phase and post phase,
// each time on a fresh database. Every end-to-end metric is the median
// over the repetitions, so one repetition slowed by the host (a stalled
// fsync, a noisy neighbour) does not move it.
const reps = 3

// outcome is what one repetition measured.
type outcome struct {
	setup     time.Duration
	mainWall  time.Duration
	mainCPU   time.Duration
	mainOps   int
	lat       [numKinds][]time.Duration
	memPeak   uint64 // largest runtime footprint sampled in the main and post phases
	attempted int
	failed    int
	wrong     int
	firstErr  error

	diskBytes int64      // on disk, all tables and WAL, after the main phase
	stats     core.Stats // cumulative, at the end
}

func (o *outcome) opsPerS() float64 { return float64(o.mainOps) / o.mainWall.Seconds() }

// execute runs n repetitions of a plan under dir. A non-nil probe traces
// the main and post phases; it needs n == 1.
func execute(p *plan, dir string, n int, probe *layerProbe) ([]*outcome, error) {
	var outs []*outcome
	for i := 0; i < n; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("rep%d", i))
		out, err := executeOnce(p, sub, probe)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(sub); err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// executeOnce is one repetition: setup, the timed main phase, the post
// phase, and the final audit.
func executeOnce(p *plan, dir string, probe *layerProbe) (*outcome, error) {
	out := &outcome{}
	var tracer *metrics.Tracer
	if probe != nil {
		// The ring keeps every trace of the traced phases, compactions
		// included; collectTraces fails if it ever wraps.
		tracer = metrics.NewTracer(0, 2*(len(p.main)+len(p.post))+1<<14)
	}
	t0 := time.Now()
	d, err := setup(p, dir, tracer)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)
	err = out.measure(p, d, tracer, probe)
	if cerr := d.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs the phases of one repetition on a set-up database.
func (out *outcome) measure(p *plan, d driver, tracer *metrics.Tracer, probe *layerProbe) error {
	db := dbOf(d)
	runtime.GC()
	if probe != nil {
		probe.begin(db, d, tracer)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	out.runPhase(d, p.main, probe)
	out.sampleFootprint()
	out.mainWall = time.Since(t0)
	out.mainCPU = cpuTime() - cpu0
	out.mainOps = len(p.main)
	if probe != nil {
		probe.mainDone(db, d, len(p.main), tracer)
	}
	pri, idx, err := db.DiskUsage()
	if err != nil {
		return err
	}
	out.diskBytes = pri + idx
	// Flush and compaction run inline inside Put, so once the last
	// operation returns no background work is pending. The post phase,
	// too, starts from a fully compacted tree and a forced GC.
	if err := db.CompactAll(); err != nil {
		return fmt.Errorf("compact before post phase: %w", err)
	}
	runtime.GC()
	if probe != nil {
		probe.postStart(db, tracer)
	}
	out.runPhase(d, p.post, probe)
	if probe != nil {
		if err := probe.end(db, tracer); err != nil {
			return err
		}
	}

	reports, err := db.Verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	for table, rep := range reports {
		if !rep.OK() {
			out.wrong++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("verify %s: %v", table, rep.Problems)
			}
		}
	}
	out.stats = db.Stats()
	return nil
}

// setup opens a fresh database, preloads it, and for HTTP plans starts the
// server and warms the block cache and the connection.
func setup(p *plan, dir string, tracer *metrics.Tracer) (driver, error) {
	opts := p.opts
	opts.Tracer = tracer
	db, err := core.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	for i := range p.preload {
		if err := db.Put(p.preload[i].key, p.preload[i].doc); err != nil {
			db.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	// A full compaction gives every seed the same tree shape, rather than
	// whatever number of L0 tables the preload happened to leave.
	if err := db.CompactAll(); err != nil {
		db.Close()
		return nil, fmt.Errorf("compact after preload: %w", err)
	}
	cd := &coreDriver{db: db}
	for i := range p.warm {
		if _, err := cd.do(&p.warm[i]); err != nil {
			db.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if !p.http {
		return cd, nil
	}
	hd, err := startHTTP(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	// Open the keep-alive connection and warm the server's code paths.
	for i := 0; i < len(p.warm) && i < 200; i++ {
		if _, err := hd.do(&p.warm[i]); err != nil {
			hd.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	hd.rtt = 0
	return hd, nil
}

func dbOf(d driver) *core.DB {
	if hd, ok := d.(*httpDriver); ok {
		return hd.db
	}
	return d.(*coreDriver).db
}

// runPhase executes ops in order, timing each and checking each answer
// against the model outside its latency window.
func (out *outcome) runPhase(d driver, ops []op, probe *layerProbe) {
	for i := range ops {
		o := &ops[i]
		lat, err := d.do(o)
		out.attempted++
		if err == nil {
			err = d.check(o)
			if err != nil {
				out.wrong++
			}
		}
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("%s %s: %w", kindNames[o.kind], o.key+o.lo, err)
			}
			continue
		}
		out.lat[o.kind] = append(out.lat[o.kind], lat)
		if i%64 == 0 {
			out.sampleFootprint()
		}
		if probe != nil {
			probe.observe(o, i)
		}
	}
}

// cpuTime is the process's user+system CPU time, all threads and the GC
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of ds (nearest rank), in microseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / 1e3
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var footprintNames = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

// sampleFootprint records the memory the Go runtime holds from the OS: all
// it has mapped minus the heap it has released. The process's peak RSS
// (getrusage) was too unsteady to gate on; see README.md.
func (out *outcome) sampleFootprint() {
	s := []rtmetrics.Sample{{Name: footprintNames[0]}, {Name: footprintNames[1]}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return
	}
	if f := s[0].Value.Uint64() - s[1].Value.Uint64(); f > out.memPeak {
		out.memPeak = f
	}
}
