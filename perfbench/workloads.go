package main

import (
	"fmt"
	"math/rand"

	"leveldbpp/internal/core"
	"leveldbpp/internal/wal"
	"leveldbpp/internal/workload"
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opLookup
	opRange
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "lookup", "rangelookup"}

// op is one generated operation together with the model's expected answer.
type op struct {
	kind   opKind
	key    string // put, get
	doc    []byte // put: the document; get: the expected document
	attr   string // lookup, rangelookup
	lo, hi string
	k      int
	want   []want // lookup, rangelookup
}

// plan is everything one workload run does, generated from the seed before
// any timer starts: the database configuration, the setup writes, the timed
// main phase, and the post phase that times the operation kinds the main
// mix lacks. Expected answers are computed by replaying the operations on
// the model in execution order.
type plan struct {
	opts    core.Options
	http    bool
	preload []op // setup: puts into the empty database
	warm    []op // setup: untimed reads that fill the block cache
	main    []op // timed: ops_per_s, cpu_us_per_op and the mix's latencies
	post    []op // timed per operation, after the main phase

	ingestBytes int64 // Σ key+document bytes over every write
	liveBytes   int64 // Σ key+document bytes over the latest documents after the main phase
}

// spec describes one workload. Sizes are in tweets or operations; the main
// phases hold mainRoundsPerSecond × --seconds rounds of mix.
type spec struct {
	name                string
	preload             int
	mainRoundsPerSecond float64
	mix                 [numKinds]int // operations of each kind in one round
	postOps             int           // operations of each kind in the post phase
	post                func(b *builder, n int) []op
	index               core.IndexKind
	cacheBytes          int64 // block cache; 0 is off, the paper's configuration
	http                bool  // drive the database through the HTTP server
}

// topK is the LOOKUP/RANGELOOKUP K (Table 7: top-10 social-feed queries).
const topK = 10

// Post phases time at least 150 operations of each kind, so that p90 has
// fifteen samples beyond it in each repetition.

var specs = []spec{
	{
		name:                "ingest",
		preload:             10000,
		mainRoundsPerSecond: 30,
		mix:                 [numKinds]int{opPut: 100},
		postOps:             300,
		post: func(b *builder, n int) []op {
			var ops []op
			for i := 0; i < n; i++ {
				ops = append(ops, b.get(), b.lookup(), b.rangeLookup())
			}
			return ops
		},
		index: core.IndexLazy,
	},
	{
		name:                "query",
		preload:             12000,
		mainRoundsPerSecond: 110,
		mix:                 [numKinds]int{opGet: 6, opLookup: 3, opRange: 1},
		postOps:             10000,
		post: func(b *builder, n int) []op {
			ops := make([]op, n)
			for i := range ops {
				ops[i] = b.put()
			}
			return ops
		},
		index: core.IndexLazy,
	},
	{
		name:                "mixed-http",
		preload:             10000,
		mainRoundsPerSecond: 300,
		mix:                 [numKinds]int{opPut: 4, opGet: 14, opLookup: 2},
		postOps:             150,
		post: func(b *builder, n int) []op {
			ops := make([]op, n)
			for i := range ops {
				ops[i] = b.rangeLookup()
			}
			return ops
		},
		index:      core.IndexEmbedded,
		cacheBytes: 64 << 20,
		http:       true,
	},
}

// engineOptions is the engine configuration of the paper-figure
// experiments (256 KiB MemTable, 4 KiB blocks, 1 MiB base level, ×10
// fan-out, L0 trigger 4) with inline flush and compaction and the WAL
// never synced, so every run does the same work.
func engineOptions(kind core.IndexKind, cacheBytes int64) core.Options {
	return core.Options{
		Index:               kind,
		Attrs:               []string{workload.AttrUser, workload.AttrTime},
		MemTableBytes:       256 << 10,
		BlockSize:           4 << 10,
		BitsPerKey:          10,
		BaseLevelBytes:      1 << 20,
		LevelMultiplier:     10,
		L0CompactionTrigger: 4,
		MaxLevels:           7,
		SyncMode:            wal.SyncOff,
		BlockCacheBytes:     cacheBytes,
	}
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// buildPlan generates a workload's operations from the seed. The main phase
// of each repetition is a whole number of rounds, at least one; together
// the repetitions hold --seconds seconds' worth.
func buildPlan(s spec, seed int64, seconds int) *plan {
	b := newBuilder(seed)
	p := &plan{opts: engineOptions(s.index, s.cacheBytes), http: s.http}
	for i := 0; i < s.preload; i++ {
		p.preload = append(p.preload, b.put())
	}
	if p.opts.BlockCacheBytes > 0 {
		for _, t := range b.tweets {
			p.warm = append(p.warm, b.getKey(t.ID))
		}
	}
	rounds := int(s.mainRoundsPerSecond*float64(seconds)/reps + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		p.main = append(p.main, b.round(s.mix)...)
	}
	p.liveBytes = b.m.liveBytes
	p.post = s.post(b, s.postOps)
	p.ingestBytes = b.m.ingestBytes
	return p
}

// builder draws operations whose conditions follow the distribution of the
// data written so far (paper §5.1) and records each write in the model.
type builder struct {
	m      *model
	gen    *workload.Generator
	rng    *rand.Rand
	tweets []workload.Tweet
}

func newBuilder(seed int64) *builder {
	return &builder{
		m: newModel(workload.AttrUser, workload.AttrTime),
		// The generator stops after Tweets; no workload writes this many.
		gen: workload.NewGenerator(workload.Config{Tweets: 1 << 30, Users: 1000, Seed: seed}),
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

func (b *builder) put() op {
	t, _ := b.gen.Next()
	doc := t.Doc()
	b.tweets = append(b.tweets, t)
	b.m.put(t.ID, doc, map[string]string{
		workload.AttrUser: t.UserID,
		workload.AttrTime: workload.EncodeTime(t.Creation),
	})
	return op{kind: opPut, key: t.ID, doc: doc}
}

func (b *builder) pick() workload.Tweet { return b.tweets[b.rng.Intn(len(b.tweets))] }

func (b *builder) get() op { return b.getKey(b.pick().ID) }

func (b *builder) getKey(key string) op {
	doc, _ := b.m.get(key)
	return op{kind: opGet, key: key, doc: doc}
}

// lookup is LOOKUP(UserID, u, 10) for the user of a random tweet, so users
// are queried in proportion to their tweet counts.
func (b *builder) lookup() op {
	u := b.pick().UserID
	return op{kind: opLookup, attr: workload.AttrUser, lo: u, hi: u, k: topK,
		want: b.m.lookup(workload.AttrUser, u, topK)}
}

// rangeLookup is RANGELOOKUP(CreationTime, one minute, 10) anchored at a
// random tweet's creation time.
func (b *builder) rangeLookup() op {
	t := b.pick().Creation
	lo, hi := workload.EncodeTime(t), workload.EncodeTime(t+59)
	return op{kind: opRange, attr: workload.AttrTime, lo: lo, hi: hi, k: topK,
		want: b.m.rangeLookup(workload.AttrTime, lo, hi, topK)}
}

// round draws one round of the mix in a shuffled order. The order is fixed
// before the operations are drawn, so each expected answer reflects the
// writes that precede it.
func (b *builder) round(mix [numKinds]int) []op {
	var kinds []opKind
	for k, n := range mix {
		for i := 0; i < n; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	b.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]op, len(kinds))
	for i, k := range kinds {
		switch k {
		case opPut:
			ops[i] = b.put()
		case opGet:
			ops[i] = b.get()
		case opLookup:
			ops[i] = b.lookup()
		default:
			ops[i] = b.rangeLookup()
		}
	}
	return ops
}
