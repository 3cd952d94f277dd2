package main

import (
	"math/rand"
	"sync"

	"lecopt/internal/catalog"
	"lecopt/internal/core"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/query"
	"lecopt/internal/workload"
)

// missHeavy: two callers send requests that are all distinct — 4-8-table
// queries of mixed shape, each with its own bimodal memory law — to a
// handle whose cache holds fewer entries than the run sends, so every
// request runs the join DP and the clone-out and the cache evicts in
// steady state.
var missHeavy = &optLoad{
	callers:    2,
	cacheSize:  512,
	prefix:     2_000,
	checkEvery: 16,
	build:      buildMiss,
}

const (
	missTemplates = 256
	// missWarm is the untimed warm-up per caller: it fills the cache and
	// gets past the slower first optimizations of a process.
	missWarm = 1_000
)

type missTemplate struct {
	blk *query.Block
	sql string
	cat *catalog.Catalog
}

type missData struct {
	tmpl []missTemplate
}

func buildMiss(int64) (dataset, error) {
	shapes := []workload.Shape{workload.Chain, workload.Star, workload.Clique, workload.Random}
	rng := rand.New(rand.NewSource(dataSeed + 1))
	d := &missData{}
	for i := 0; i < missTemplates; i++ {
		tables := 4 + i%5
		sc, err := workload.Generate(workload.DefaultSpec(tables, shapes[(i/5)%4]), rng)
		if err != nil {
			return nil, err
		}
		sql, err := sqlFor(sc.Block, sc.Cat)
		if err != nil {
			return nil, err
		}
		d.tmpl = append(d.tmpl, missTemplate{blk: sc.Block, sql: sql, cat: sc.Cat})
	}
	return d, nil
}

// warm runs missWarm requests per caller from a stream of their own.
func (d *missData) warm(r *optRun, seed int64, _ *tracer) error {
	errs := make([]error, r.load.callers)
	var wg sync.WaitGroup
	for c := 0; c < r.load.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := d.stream(seed, 100+int64(c))
			for j := 0; j < missWarm; j++ {
				if _, err := r.serve(st.next(j)); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

type missStream struct {
	d   *missData
	rng *rand.Rand
}

func (d *missData) stream(seed, base int64) stream {
	return &missStream{d: d, rng: newRand(seed, 1+base)}
}

func (s *missStream) next(j int) item {
	t := &s.d.tmpl[s.rng.Intn(len(s.d.tmpl))]
	lo := 100 + s.rng.Float64()*1900
	hi := lo * (2 + s.rng.Float64()*18)
	pLo := 0.05 + s.rng.Float64()*0.9
	law, err := dist.Bimodal(lo, hi, pLo)
	if err != nil {
		panic(err) // pLo lies in (0, 1) by construction
	}
	it := item{blk: t.blk, cat: t.cat, env: envsim.Env{Mem: law}, alg: core.AlgC}
	if j%4 == 3 {
		it.sql = t.sql
	}
	return it
}
