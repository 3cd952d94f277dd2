package plancache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/workload"
)

// get is a counted lookup, the way a request records its one outcome.
func get(c *Cache[int], key string) (int, bool) {
	v, ok := c.ProbeBytes([]byte(key))
	c.Record(ok)
	return v, ok
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New[int](64)
	if _, ok := get(c, "a"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := get(c, "a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	c.Put("a", 10) // refresh
	if v, _ := get(c, "a"); v != 10 {
		t.Fatalf("refreshed Get(a) = %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v", got)
	}
}

// sameShardKeys returns n distinct keys that hash to the same shard.
func sameShardKeys(t *testing.T, c *Cache[int], n int) []string {
	t.Helper()
	target := shardOf(c, "k0")
	keys := []string{"k0"}
	for i := 1; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if shardOf(c, k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestLRUEvictionWithinShard(t *testing.T) {
	c := New[int](shardCount) // one entry per shard
	keys := sameShardKeys(t, c, 3)
	c.Put(keys[0], 0)
	c.Put(keys[1], 1) // evicts keys[0]
	if _, ok := get(c, keys[0]); ok {
		t.Fatal("oldest entry not evicted")
	}
	if v, ok := get(c, keys[1]); !ok || v != 1 {
		t.Fatal("newest entry missing")
	}
}

func TestLRURecencyOnGet(t *testing.T) {
	c := New[int](2 * shardCount) // two entries per shard
	keys := sameShardKeys(t, c, 3)
	c.Put(keys[0], 0)
	c.Put(keys[1], 1)
	get(c, keys[0])   // make keys[0] most recent
	c.Put(keys[2], 2) // should evict keys[1]
	if _, ok := get(c, keys[0]); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := get(c, keys[1]); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestTinyCapacityStillCaches(t *testing.T) {
	c := New[int](1)
	c.Put("x", 7)
	if v, ok := get(c, "x"); !ok || v != 7 {
		t.Fatal("capacity-1 cache dropped its only entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%64)
				c.Put(k, i)
				get(c, k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
}

func testScenario(t *testing.T, seed int64) workload.Scenario {
	t.Helper()
	sc, err := workload.Generate(workload.DefaultSpec(3, workload.Chain), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSignatureDeterministicAndDiscriminating(t *testing.T) {
	sc := testScenario(t, 1)
	mem, err := dist.Bimodal(700, 2000, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	env := envsim.Env{Mem: mem}
	sig := func(sc workload.Scenario, env envsim.Env, opts optimizer.Options, topC int, alg string) string {
		return Signature(sc.Cat, sc.Block, env, nil, nil, opts, topC, alg, 0)
	}
	base := sig(sc, env, optimizer.Options{}, 3, "algorithm-c")
	if base != sig(sc, env, optimizer.Options{}, 3, "algorithm-c") {
		t.Fatal("signature not deterministic")
	}
	if base == sig(sc, env, optimizer.Options{}, 3, "algorithm-a") {
		t.Fatal("algorithm not in signature")
	}
	//leclint:allow optguard -- asserts the options (incl. DisableIndexes) are part of the cache signature
	if base == sig(sc, env, optimizer.Options{DisableIndexes: true}, 3, "algorithm-c") {
		t.Fatal("options not in signature")
	}
	if base == sig(sc, env, optimizer.Options{}, 4, "algorithm-c") {
		t.Fatal("top-c not in signature")
	}
	other := testScenario(t, 2)
	if base == sig(other, env, optimizer.Options{}, 3, "algorithm-c") {
		t.Fatal("catalog/query not in signature")
	}
	wider, err := dist.Bimodal(700, 2000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if base == sig(sc, envsim.Env{Mem: wider}, optimizer.Options{}, 3, "algorithm-c") {
		t.Fatal("memory law not in signature")
	}
	chain, err := dist.Sticky([]float64{700, 2000}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if base == sig(sc, envsim.Env{Mem: mem, Chain: chain}, optimizer.Options{}, 3, "algorithm-c") {
		t.Fatal("markov chain not in signature")
	}
	// Workers is a how-fast knob, not a which-plan knob: same key.
	if base != sig(sc, env, optimizer.Options{Workers: 8}, 3, "algorithm-c") {
		t.Fatal("worker count leaked into the signature")
	}
	// Zero-value options and explicitly spelled-out defaults run the same
	// optimization, so they must share a key.
	if base != sig(sc, env, optimizer.Options{}.Normalized(), 3, "algorithm-c") {
		t.Fatal("explicit default options changed the signature")
	}
}

func TestSignatureLawMapOrderInsensitive(t *testing.T) {
	sc := testScenario(t, 3)
	env := envsim.Env{Mem: dist.Point(1000)}
	lawA := dist.Point(0.5)
	lawB := dist.Point(0.25)
	m1 := map[string]dist.Dist{"t0.k=t1.k": lawA, "t1.k=t2.k": lawB}
	m2 := map[string]dist.Dist{"t1.k=t2.k": lawB, "t0.k=t1.k": lawA}
	s1 := Signature(sc.Cat, sc.Block, env, m1, nil, optimizer.Options{}, 3, "algorithm-d", 0)
	s2 := Signature(sc.Cat, sc.Block, env, m2, nil, optimizer.Options{}, 3, "algorithm-d", 0)
	if s1 != s2 {
		t.Fatal("signature depends on map insertion order")
	}
	s3 := Signature(sc.Cat, sc.Block, env, nil, nil, optimizer.Options{}, 3, "algorithm-d", 0)
	if s1 == s3 {
		t.Fatal("selectivity laws not in signature")
	}
}

func TestStatsEvictionsAndShards(t *testing.T) {
	c := New[int](16) // one slot per shard
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("overfull cache recorded no evictions")
	}
	if len(st.ShardSizes) == 0 {
		t.Fatal("no shard occupancy reported")
	}
	total := 0
	for _, n := range st.ShardSizes {
		if n > 1 {
			t.Fatalf("shard over its capacity: %v", st.ShardSizes)
		}
		total += n
	}
	if total != st.Size {
		t.Fatalf("shard occupancy %d != size %d", total, st.Size)
	}
	if uint64(200-st.Size) != st.Evictions {
		t.Fatalf("evictions %d inconsistent with 200 puts and size %d", st.Evictions, st.Size)
	}
}

func TestSignatureDriftBand(t *testing.T) {
	sc := testScenario(t, 9)
	env := envsim.Env{Mem: dist.Point(1000)}
	exact := Signature(sc.Cat, sc.Block, env, nil, nil, optimizer.Options{}, 3, "algorithm-c", 0)
	banded := Signature(sc.Cat, sc.Block, env, nil, nil, optimizer.Options{}, 3, "algorithm-c", 2)
	if exact == banded {
		t.Fatal("band base must be part of the key")
	}
	// Size hints change which plan is optimal, so they must split keys.
	hinted := Signature(sc.Cat, sc.Block, env, nil, nil,
		optimizer.Options{SizeHints: map[string]float64{"t0+t1": 42}}, 3, "algorithm-c", 0)
	if hinted == exact {
		t.Fatal("size hints not in signature")
	}
	h2 := Signature(sc.Cat, sc.Block, env, nil, nil,
		optimizer.Options{SizeHints: map[string]float64{"t0+t1": 42}}, 3, "algorithm-c", 0)
	if hinted != h2 {
		t.Fatal("hinted signature not deterministic")
	}
}

// TestShardingDeterministic: shard choice is a fixed function of the key,
// so two caches fed the same sequence under eviction pressure evict the
// same entries and report equal counters and occupancy.
func TestShardingDeterministic(t *testing.T) {
	run := func() Stats {
		c := New[int](32)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("%064x", rng.Intn(200))
			if _, ok := get(c, k); !ok {
				c.Put(k, i)
			}
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a.Evictions == 0 {
		t.Fatal("sequence must evict to exercise per-shard capacity")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same sequence, different stats:\n%+v\n%+v", a, b)
	}
}
