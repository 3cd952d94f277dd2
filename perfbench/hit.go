package main

import (
	"fmt"
	"math/rand"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// hitHeavy: two callers send Zipf-1.1 traffic over 64 request templates
// of 2-5 tables whose catalogs follow a drift walk. The warm-up caches
// every (template, drift level) pair, so the timed phase is served by
// warm hits: canonical form, scenario, key preimage and hash, probe, and
// parsing for the SQL quarter.
var hitHeavy = &optLoad{
	callers:    2,
	cacheSize:  core.DefaultCacheSize,
	prefix:     20_000,
	checkEvery: 256,
	expectHits: true,
	build:      buildHit,
}

const (
	hitTemplates = 64
	hitZipfS     = 1.1
	// hitStepLen is how many requests a caller sends before its drift
	// walk takes a step.
	hitStepLen = 512
	hitWalkLen = 64
)

// hitLevels are the drift walk's distinct-count factors. They straddle
// the factor-2 key bands by less than a band, so most steps stay in
// band and some cross an edge, where the handle's band-edge probe finds
// the neighbouring entry.
var hitLevels = []float64{0.8, 0.9, 1, 1.1, 1.25}

type hitTemplate struct {
	blk  *query.Block
	sql  string
	env  envsim.Env
	cats []*catalog.Catalog // one per hitLevels entry
}

type hitData struct {
	tmpl []hitTemplate
	walk []int // hitLevels indexes, drawn from the run seed
}

func buildHit(seed int64) (dataset, error) {
	envs, err := workload.StandardEnvs()
	if err != nil {
		return nil, err
	}
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	rng := rand.New(rand.NewSource(dataSeed))
	d := &hitData{}
	for i := 0; i < hitTemplates; i++ {
		tables := 2 + (i/4)%4
		sc, err := workload.Generate(workload.DefaultSpec(tables, shapes[i%4]), rng)
		if err != nil {
			return nil, err
		}
		t := hitTemplate{blk: sc.Block, env: envs[(i*7)%len(envs)].Env}
		for _, f := range hitLevels {
			cat, err := sc.Cat.ScaleDistinct(f)
			if err != nil {
				return nil, err
			}
			t.cats = append(t.cats, cat)
		}
		if t.sql, err = sqlFor(sc.Block, sc.Cat); err != nil {
			return nil, err
		}
		d.tmpl = append(d.tmpl, t)
	}
	chain, err := dist.Sticky(hitLevels, 0.6)
	if err != nil {
		return nil, err
	}
	walk, err := chain.SampleSeq(newRand(seed, 0), dist.Point(1), hitWalkLen)
	if err != nil {
		return nil, err
	}
	for _, f := range walk {
		d.walk = append(d.walk, levelIndex(f))
	}
	return d, nil
}

func levelIndex(f float64) int {
	for i, l := range hitLevels {
		if l == f {
			return i
		}
	}
	panic(fmt.Sprintf("perfbench: drift level %v is not in hitLevels", f))
}

// warm sends every (template, drift level) pair once, in a fixed order
// from one goroutine, so the cache contents after set-up are the same on
// every run.
func (d *hitData) warm(r *optRun, _ int64, tr *tracer) error {
	keyBuf := newKeyBuf()
	id := uint32(1 << 31)
	for ti := range d.tmpl {
		t := &d.tmpl[ti]
		for li := range hitLevels {
			it := item{blk: t.blk, cat: t.cats[li], env: t.env, alg: core.AlgC}
			if tr != nil {
				id++
				root := tr.root(lRequest, id)
				var err error
				if keyBuf, _, err = layerCalls(tr, id, root, &it, keyBand, r.cache, r.shadow, keyBuf, nil); err != nil {
					return err
				}
				s := tr.begin(lOptimize, id, root)
				_, err = r.serve(it)
				tr.end(s)
				tr.end(root)
				if err != nil {
					return err
				}
				continue
			}
			if _, err := r.serve(it); err != nil {
				return err
			}
		}
	}
	return nil
}

type hitStream struct {
	d    *hitData
	zipf *rand.Zipf
	off  int
}

func (d *hitData) stream(seed, base int64) stream {
	rng := newRand(seed, 1+base)
	return &hitStream{
		d:    d,
		zipf: rand.NewZipf(rng, hitZipfS, 1, hitTemplates-1),
		off:  rng.Intn(len(d.walk)),
	}
}

func (s *hitStream) next(j int) item {
	t := &s.d.tmpl[s.zipf.Uint64()]
	li := s.d.walk[(s.off+j/hitStepLen)%len(s.d.walk)]
	it := item{blk: t.blk, cat: t.cats[li], env: t.env, alg: core.AlgC}
	if j%4 == 3 {
		it.sql = t.sql
	}
	return it
}
