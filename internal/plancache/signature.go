package plancache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"

	"lecopt/internal/catalog"
	"lecopt/internal/dist"
	"lecopt/internal/envsim"
	"lecopt/internal/optimizer"
	"lecopt/internal/query"
)

// KeyLen is the byte length of every cache key: a hex-encoded SHA-256
// digest. Callers that look keys up with Cache.ProbeBytes can
// keep a reusable [KeyLen]-capacity buffer and avoid allocating per
// lookup (AppendKey / AppendKeyMargin).
const KeyLen = 2 * sha256.Size

// Signature builds a canonical cache key covering everything an
// optimization's outcome depends on:
//
//   - the catalog fingerprint — exact when driftBand <= 1, or the
//     drift-banded fingerprint (distinct counts bucketed into geometric
//     bands of base driftBand; see catalog.BandedFingerprint) otherwise,
//     so statistics drifting within a band keep hitting the same entry,
//   - the query's canonical shape (tables, predicates, ORDER BY — order
//     insensitive),
//   - a digest of the environment laws (memory distribution plus the full
//     Markov transition matrix when dynamic),
//   - the Algorithm D selectivity and size laws,
//   - the plan-space options — including executed-size feedback hints,
//     which change which plan is optimal — and algorithm name (and
//     Algorithm B's top-c).
//
// Options.Workers is deliberately excluded: the worker count changes how
// fast an answer is found, never which answer. With an exact fingerprint,
// two scenarios that hash equal are optimized identically, so memoized
// PlanReports can be shared; with a banded fingerprint they are optimized
// *equivalently up to in-band drift* — the deliberate approximation that
// lets drifting tenants share plans.
func Signature(cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg string, driftBand float64) string {
	return SignatureMargin(cat, blk, env, selLaws, sizeLaws, opts, topC, alg, driftBand, 0)
}

// SignatureMargin is Signature with the catalog's distinct-count bands
// offset by margin band units (catalog.BandedFingerprintMargin) — the
// band-edge hysteresis probe key. Everything outside the catalog digest
// hashes identically to Signature, so a statistics state sitting within
// |margin| of a band boundary produces, under the matching-signed margin,
// the very key its across-the-boundary neighbor was cached under. Margin
// only applies to banded keys (driftBand > 1); with exact keys it is
// ignored.
func SignatureMargin(cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg string, driftBand, margin float64) string {
	var key [KeyLen]byte
	return string(AppendKeyMargin(key[:0], cat, blk, env, selLaws, sizeLaws, opts, topC, alg, driftBand, margin))
}

// AppendKey appends the Signature key's KeyLen bytes to dst and returns
// the extended slice — the allocation-free form of Signature. When dst
// has KeyLen spare capacity and the scenario carries no Algorithm D laws
// and no size hints (the serving hot path), the call performs zero heap
// allocations: the digest preimage is built in a pooled buffer with
// strconv appends, hashed with sha256.Sum256 on the stack, and
// hex-encoded straight into dst.
func AppendKey(dst []byte, cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg string, driftBand float64) []byte {
	return AppendKeyMargin(dst, cat, blk, env, selLaws, sizeLaws, opts, topC, alg, driftBand, 0)
}

// AppendKeyMargin is AppendKey with the band-edge hysteresis margin of
// SignatureMargin. AppendKeyMargin(nil, ...) == []byte(SignatureMargin(...))
// for all inputs.
func AppendKeyMargin(dst []byte, cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg string, driftBand, margin float64) []byte {
	bp := preimagePool.Get().(*[]byte)
	pre := appendPreimage((*bp)[:0], cat, blk, env, selLaws, sizeLaws, opts, topC, alg, driftBand, margin)
	sum := sha256.Sum256(pre)
	*bp = pre
	preimagePool.Put(bp)
	return hex.AppendEncode(dst, sum[:])
}

// preimagePool recycles the digest preimage buffers; 2 KB covers a
// typical catalog-fingerprint + query + env description without growth.
var preimagePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// appendPreimage writes the canonical signature preimage. Every field is
// appended with strconv (floats in the same shortest-'g' form fmt's %v
// uses), so the preimage for a given scenario is byte-stable and building
// it allocates only for the sorted-key passes over non-empty law/hint
// maps. The memoized per-catalog fingerprint and per-block canonical
// shape are the prefix digests: the two largest inputs are hashed once
// per catalog version / per block, not per request.
func appendPreimage(b []byte, cat *catalog.Catalog, blk *query.Block, env envsim.Env,
	selLaws, sizeLaws map[string]dist.Dist, opts optimizer.Options, topC int,
	alg string, driftBand, margin float64) []byte {
	opts = opts.Normalized() // zero-value and explicit defaults hash equal
	b = append(b, "alg="...)
	b = append(b, alg...)
	b = append(b, " topc="...)
	b = strconv.AppendInt(b, int64(topC), 10)
	b = append(b, "\ncat="...)
	if driftBand > 1 {
		b = append(b, cat.BandedFingerprintMargin(driftBand, margin)...)
		b = append(b, " band="...)
		b = appendFloat(b, driftBand)
	} else {
		b = append(b, cat.Fingerprint()...)
	}
	b = append(b, "\nquery="...)
	b = append(b, blk.Canonical()...)
	b = append(b, "\nmem="...)
	b = appendDist(b, env.Mem)
	if env.Chain != nil {
		b = append(b, "chain states="...)
		n := env.Chain.Len()
		for i := 0; i < n; i++ {
			b = appendFloat(b, env.Chain.State(i))
			b = append(b, ',')
		}
		b = append(b, " rows="...)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b = appendFloat(b, env.Chain.Prob(i, j))
				b = append(b, ',')
			}
			b = append(b, ';')
		}
		b = append(b, '\n')
	}
	b = appendLawMap(b, "sel", selLaws)
	b = appendLawMap(b, "size", sizeLaws)
	b = appendHints(b, opts.SizeHints)
	b = append(b, "opts methods="...)
	for i, m := range opts.Methods {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, m.String()...)
	}
	b = append(b, " noidx="...)
	b = strconv.AppendBool(b, opts.DisableIndexes)
	b = append(b, " minpages="...)
	b = appendFloat(b, opts.MinPages)
	b = append(b, " sizebuckets="...)
	b = strconv.AppendInt(b, int64(opts.SizeBuckets), 10)
	b = append(b, " costmodel="...)
	b = append(b, opts.CostModel.String()...)
	b = append(b, '\n')
	return b
}

// appendFloat appends a float64 in fmt %v form (shortest 'g').
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendHints streams the executed-size feedback hints in sorted key order.
func appendHints(b []byte, hints map[string]float64) []byte {
	if len(hints) == 0 {
		return b
	}
	keys := make([]string, 0, len(hints))
	for k := range hints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = append(b, "hint "...)
		b = append(b, k...)
		b = append(b, '=')
		b = appendFloat(b, hints[k])
		b = append(b, '\n')
	}
	return b
}

// appendDist streams a distribution's support and probabilities.
func appendDist(b []byte, d dist.Dist) []byte {
	for i := 0; i < d.Len(); i++ {
		b = appendFloat(b, d.Value(i))
		b = append(b, ':')
		b = appendFloat(b, d.Prob(i))
		b = append(b, ',')
	}
	return append(b, '\n')
}

// appendLawMap streams a law map in sorted key order.
func appendLawMap(b []byte, label string, laws map[string]dist.Dist) []byte {
	if len(laws) == 0 {
		return b
	}
	keys := make([]string, 0, len(laws))
	for k := range laws {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = append(b, label...)
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, '=')
		b = appendDist(b, laws[k])
	}
	return b
}
