// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload as three repetitions, each in a child process of its own, and
// prints, as the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones from a traced pass. Every
// answer is checked against a reference model kept by the benchmark.
// From the repository root:
//
//	python3 perfbench/run.py --workload query --seed 1 --seconds 12 --trace 0
//
// run.py builds this program under .bench_build/ and adds the
// all-workloads and repeat modes; README.md describes the workloads, the
// metrics and how to read a traced run.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics lists every end-to-end metric a run prints, with its
// unit, in the order BENCHMARK.json declares them.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"mem_peak_mb", "MB"},
	{"space_amp", "ratio"},
	{"write_amp", "ratio"},
	{"put_p50_us", "us"}, {"put_p90_us", "us"},
	{"get_p50_us", "us"}, {"get_p90_us", "us"},
	{"lookup_p50_us", "us"}, {"lookup_p90_us", "us"},
	{"rangelookup_p50_us", "us"}, {"rangelookup_p90_us", "us"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest, query or mixed-http")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 12, "sizes the timed main phases: together they hold this many seconds' worth of rounds at the calibrated rate")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench-data"), "scratch directory for the databases")
		rep     = flag.Bool("rep", false, "run one repetition and print its metrics (how a run starts each repetition)")
	)
	flag.Parse()
	// One P: with two, the concurrent GC and the HTTP client and server
	// goroutines overlap on the second vCPU, whose share varies with the
	// host's other tenants, and same-seed throughput varied by half.
	runtime.GOMAXPROCS(1)
	var err error
	if *rep {
		err = runRep(*name, *seed, *seconds, *dir)
	} else {
		err = run(*name, *seed, *seconds, *trace == 1, *dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newPlan(name string, seed int64, seconds int) (*plan, error) {
	s, err := findSpec(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	return buildPlan(s, seed, seconds), nil
}

// repResult is what one repetition, run in its own process, reports to
// the parent on its last line.
type repResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Wrong     int                `json:"wrong"`
	FirstErr  string             `json:"first_err,omitempty"`
	MainWallS float64            `json:"main_wall_s"`
	MainCPUS  float64            `json:"main_cpu_s"`
}

// runRep runs one repetition: a fresh process gives every repetition the
// same start, an empty heap.
func runRep(name string, seed int64, seconds int, dir string) error {
	p, err := newPlan(name, seed, seconds)
	if err != nil {
		return err
	}
	work := filepath.Join(dir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	defer os.RemoveAll(work)
	outs, err := execute(p, work, 1, nil)
	if err != nil {
		return err
	}
	o := outs[0]
	r := repResult{Metrics: repMetrics(p, o), Attempted: o.attempted, Failed: o.failed,
		Wrong: o.wrong, MainWallS: o.mainWall.Seconds(), MainCPUS: o.mainCPU.Seconds()}
	if o.firstErr != nil {
		r.FirstErr = o.firstErr.Error()
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// repMetrics computes every end-to-end metric of one repetition.
func repMetrics(p *plan, o *outcome) map[string]float64 {
	st := o.stats
	written := st.Primary.BlockWriteBytes + st.Primary.CompactionWriteBytes +
		st.Index.BlockWriteBytes + st.Index.CompactionWriteBytes
	m := map[string]float64{
		"setup_s":       o.setup.Seconds(),
		"ops_per_s":     o.opsPerS(),
		"cpu_us_per_op": float64(o.mainCPU.Nanoseconds()) / 1e3 / float64(o.mainOps),
		"mem_peak_mb":   float64(o.memPeak) / (1 << 20),
		"space_amp":     float64(o.diskBytes) / float64(p.liveBytes),
		"write_amp":     float64(written) / float64(p.ingestBytes),
	}
	for k := opKind(0); k < numKinds; k++ {
		m[kindNames[k]+"_p50_us"] = quantile(o.lat[k], 0.50)
		m[kindNames[k]+"_p90_us"] = quantile(o.lat[k], 0.90)
	}
	return m
}

func run(name string, seed int64, seconds int, traced bool, dir string) error {
	p, err := newPlan(name, seed, seconds)
	if err != nil {
		return err
	}
	printEnv()
	var res result
	if traced {
		work := filepath.Join(dir, fmt.Sprintf("%s-%d", name, os.Getpid()))
		defer os.RemoveAll(work)
		res, err = layered(p, work)
	} else {
		res, err = endToEnd(p, name, seed, seconds, dir)
	}
	if err != nil {
		return err
	}
	fmt.Printf("# workload %s seed %d: attempted %d, failed %d, correct %v\n",
		name, seed, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("#   %-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// describe prints the size of what a run did, for reading its numbers.
func describe(p *plan) {
	fmt.Printf("# data: %d tweets preloaded, %d main ops and %d post ops per repetition; %.1f MB live after the main phase\n",
		len(p.preload), len(p.main), len(p.post), float64(p.liveBytes)/(1<<20))
}

// endToEnd runs every repetition in its own process and reports, for each
// metric, the median over the repetitions.
func endToEnd(p *plan, name string, seed int64, seconds int, dir string) (result, error) {
	describe(p)
	res := result{Correct: true, Metrics: map[string]metric{}}
	var repOuts []repResult
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	for i := 0; i < reps; i++ {
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-dir", dir, "-rep")
		cmd.Stderr = os.Stderr
		// A repetition must not outlive a run that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		var r repResult
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return result{}, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		fmt.Printf("# repetition %d: setup %.2f s, main phase %.2f s wall, %.2f s CPU, %.1f MB memory\n",
			i+1, r.Metrics["setup_s"], r.MainWallS, r.MainCPUS, r.Metrics["mem_peak_mb"])
		if r.FirstErr != "" {
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d: first failure: %s\n", i+1, r.FirstErr)
		}
		res.Correct = res.Correct && r.Wrong == 0
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		repOuts = append(repOuts, r)
	}
	for _, em := range endToEndMetrics {
		xs := make([]float64, len(repOuts))
		for i, r := range repOuts {
			xs[i] = r.Metrics[em.name]
		}
		res.Metrics[em.name] = metric{median(xs), em.unit}
	}
	return res, nil
}

// report sums the repetitions' counts into the result header and prints
// the first failure, if any, to standard error.
func report(outs []*outcome) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, o := range outs {
		if o.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", o.firstErr)
		}
		res.Correct = res.Correct && o.wrong == 0
		res.Attempted += o.attempted
		res.Failed += o.failed
	}
	return res
}

// medianOf is the median over repetitions of f.
func medianOf(outs []*outcome, f func(o *outcome) float64) float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = f(o)
	}
	return median(xs)
}

// layered runs the plan untraced (main phase only, every repetition) and
// then once traced, in this process, and reports the per-layer metrics of
// the traced pass together with the tracing overhead on main-phase
// throughput.
func layered(p *plan, work string) (result, error) {
	describe(p)
	mainOnly := *p
	mainOnly.post = nil
	plain, err := execute(&mainOnly, filepath.Join(work, "untraced"), reps, nil)
	if err != nil {
		return result{}, err
	}
	probe := &layerProbe{}
	traced, err := execute(p, filepath.Join(work, "traced"), 1, probe)
	if err != nil {
		return result{}, err
	}
	res := report(append(plain, traced...))
	vals := probe.values(traced[0].opsPerS(), medianOf(plain, (*outcome).opsPerS))
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{vals[lm.name], lm.unit}
	}
	return res, nil
}

// printEnv prints the host and build the numbers belong to. The commit
// comes from the build's VCS stamp or, in a checkout that is not a git
// repository, from a hash of the sources.
func printEnv() {
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value + commit
			case s.Key == "vcs.modified" && s.Value == "true":
				commit += "+modified"
			}
		}
	}
	if commit == "" {
		id, err := treeID(".")
		if err != nil {
			id = "unknown"
		}
		commit = id
	}
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// treeID hashes the Go sources and module files under root, skipping
// build output: a commit stand-in for checkouts that are not git
// repositories.
func treeID(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", path)
		_, err = io.Copy(h, f)
		return err
	})
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:6]), err
}
