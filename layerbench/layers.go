package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"

	"paramra"
	"paramra/internal/absint"
	"paramra/internal/analysis"
	"paramra/internal/cache"
	"paramra/internal/datalog"
	"paramra/internal/depgraph"
	"paramra/internal/encode"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/ra"
	"paramra/internal/simplified"
)

// The traced pipeline below calls each layer's public functions in the
// order, and with the options, that paramra.Verify (verifyCached → verify →
// verifyDatalog) and the raserved /v1/verify handler (Verify, then
// ConfirmViolation) use, and opens one span around each call. The layers
// themselves get no tracer, so every span is the benchmark's own and a
// layer's self time is its span minus nothing but the spans nested in it.
// The prepass's concrete replay runs inside absint.Prepass and cannot be
// split from here; it stays inside absint.prepass.
//
// Parity (checkParity) holds the composition to paramra.Verify: if the two
// ever disagree on a verdict or a count, the per-layer numbers describe a
// different program and the run fails.

// Span names, one per layer call.
const (
	spParse    = "lang.parse"
	spSlice    = "analysis.slice"
	spCanon    = "cache.canon"
	spLookup   = "cache.lookup"
	spPrepass  = "absint.prepass"
	spFixpoint = "simplified.fixpoint"
	spGraph    = "depgraph.graph"
	spSkeleton = "encode.skeleton"
	spEval     = "datalog.eval"
	spConfirm  = "ra.confirm"
)

// layerCounts is the work one traced verification did, per layer.
type layerCounts struct {
	prepassRan     bool // per verification: did the prepass run,
	prepassDecided bool // and did it decide
	replayStates   int
	macroStates    int
	saturation     int
	dedupHits      int64
	peakFrontier   int64
	skeletons      int
	rounds         int
	atoms          int
	cacheLookups   int
	cacheHits      int
	cacheStores    int
	confirmStates  int
	prepassAlloc   uint64
	fixpointAlloc  uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.replayStates += o.replayStates
	c.macroStates += o.macroStates
	c.saturation += o.saturation
	c.dedupHits += o.dedupHits
	if o.peakFrontier > c.peakFrontier {
		c.peakFrontier = o.peakFrontier
	}
	c.skeletons += o.skeletons
	c.rounds += o.rounds
	c.atoms += o.atoms
	c.cacheLookups += o.cacheLookups
	c.cacheHits += o.cacheHits
	c.cacheStores += o.cacheStores
	c.confirmStates += o.confirmStates
	c.prepassAlloc += o.prepassAlloc
	c.fixpointAlloc += o.fixpointAlloc
}

// heapAllocBytes reads the process's cumulative heap allocation. The traced
// pipeline runs one verification at a time, so the difference across a
// layer call is that layer's allocation (plus one span's bookkeeping).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedPipeline is the benchmark's composition of the layer calls.
type tracedPipeline struct {
	opts  paramra.Options
	cache *cache.Cache // nil: no cache, as in paramra.Verify without Options.Cache
}

// verify mirrors paramra.Verify on an already parsed system.
func (p *tracedPipeline) verify(ctx context.Context, sys *lang.System, parent *obs.Span, lc *layerCounts) (paramra.Result, error) {
	if p.opts.Goal != nil || p.opts.UnrollDis > 0 {
		return paramra.Result{}, errors.New("layerbench: no workload asks goal queries or unrolls dis loops")
	}
	if p.cache == nil {
		return p.verifyUncached(ctx, sys, parent, lc)
	}
	sp := parent.Child(spSlice)
	sliced, _ := analysis.Slice(sys, analysis.SliceOptions{})
	sp.End()
	sp = parent.Child(spCanon)
	canon := cache.Canonicalize(sliced)
	canon.Sys.Name = sys.Name
	sp.End()
	key := cache.Key(canon.Hash, cacheFingerprint(p.opts))

	lc.cacheLookups++
	lookup := parent.Child(spLookup)
	var (
		full paramra.Result
		ferr error
		ran  bool
	)
	v, outcome, err := p.cache.Do(ctx, key, func() (cache.Verdict, bool, error) {
		lookup.End()
		ran = true
		full, ferr = p.verifyUncached(ctx, canon.Sys, parent, lc)
		storable := ferr == nil && full.Complete
		if storable {
			lc.cacheStores++
		}
		// The store into the LRU happens inside Do after this returns; it is
		// booked to the cache layer as a second lookup span.
		lookup = parent.Child(spLookup)
		return toCacheVerdict(full), storable, ferr
	})
	lookup.End()
	if ran {
		return full, ferr
	}
	if outcome == cache.Hit || outcome == cache.Shared {
		lc.cacheHits++
	}
	if err != nil {
		return paramra.Result{EnvThreadBound: -1, Class: lang.Classify(canon.Sys)}, err
	}
	return fromCacheVerdict(v), nil
}

// cacheFingerprint renders the verdict-affecting options exactly as the
// library's verdict cache keys them.
func cacheFingerprint(o paramra.Options) string {
	return fmt.Sprintf("fp1|g=%s|u=%d|dl=%t|pp=%t|dh=%t|mm=%d|ms=%d|sk=%d",
		"", o.UnrollDis, o.Datalog, o.Prepass, o.DatalogHints,
		o.MaxMacroStates, o.MaxStates, o.MaxSkeletons)
}

func toCacheVerdict(r paramra.Result) cache.Verdict {
	return cache.Verdict{
		Unsafe:         r.Unsafe,
		Complete:       r.Complete,
		Class:          r.Class,
		Underapprox:    r.Underapprox,
		EnvThreadBound: r.EnvThreadBound,
		Witness:        append([]string(nil), r.Witness...),
		DecidedBy:      r.DecidedBy,
		PrepassReason:  r.PrepassReason,
	}
}

func fromCacheVerdict(v cache.Verdict) paramra.Result {
	return paramra.Result{
		Unsafe:         v.Unsafe,
		Complete:       v.Complete,
		Class:          v.Class,
		Underapprox:    v.Underapprox,
		EnvThreadBound: v.EnvThreadBound,
		Witness:        append([]string(nil), v.Witness...),
		DecidedBy:      v.DecidedBy,
		PrepassReason:  v.PrepassReason,
		CacheHit:       true,
	}
}

// verifyUncached mirrors the library's uncached verify, without its goal
// and unrolling branches, which no workload takes.
func (p *tracedPipeline) verifyUncached(ctx context.Context, sys *lang.System, parent *obs.Span, lc *layerCounts) (paramra.Result, error) {
	opts := p.opts
	res := paramra.Result{EnvThreadBound: -1}
	if opts.Prepass {
		aopts := absint.Options{Workers: opts.Parallelism}
		if opts.MaxStates > 0 {
			aopts.MaxReplayStates = opts.MaxStates
		}
		sp := parent.Child(spPrepass)
		a0 := heapAllocBytes()
		out, err := absint.Prepass(ctx, sys, aopts)
		lc.prepassAlloc += heapAllocBytes() - a0
		sp.SetAttr("decided", out.Verdict != absint.Inconclusive)
		sp.End()
		lc.prepassRan = true
		lc.replayStates += out.ReplayStates
		if err != nil {
			res.Class = lang.Classify(sys)
			return res, err
		}
		switch out.Verdict {
		case absint.Safe:
			lc.prepassDecided = true
			res.Complete = true
			res.DecidedBy = "prepass"
			res.PrepassReason = out.Reason
			res.Class = lang.Classify(sys)
			return res, nil
		case absint.Unsafe:
			lc.prepassDecided = true
			res.Unsafe = true
			res.Complete = true
			res.DecidedBy = "prepass"
			res.PrepassReason = out.Reason
			res.EnvThreadBound = int64(out.EnvThreads)
			if out.Witness != "" {
				res.Witness = strings.Split(strings.TrimRight(out.Witness, "\n"), "\n")
			}
			res.Class = lang.Classify(sys)
			return res, nil
		default:
			res.PrepassReason = out.Reason
		}
	}
	res.Class = lang.Classify(sys)
	if opts.Datalog {
		res.DecidedBy = "datalog"
		return p.verifyDatalog(ctx, sys, res, parent, lc)
	}
	res.DecidedBy = "fixpoint"

	sp := parent.Child(spFixpoint)
	a0 := heapAllocBytes()
	ver, err := simplified.New(sys, simplified.Options{
		MaxMacroStates: opts.MaxMacroStates,
		Workers:        opts.Parallelism,
	})
	if err != nil {
		sp.End()
		return res, err
	}
	out := ver.VerifyContext(ctx)
	lc.fixpointAlloc += heapAllocBytes() - a0
	sp.End()
	lc.macroStates += out.Stats.MacroStates
	lc.saturation += out.Stats.SaturationSteps
	lc.dedupHits += out.Engine.DedupHits
	if out.Engine.PeakFrontier > lc.peakFrontier {
		lc.peakFrontier = out.Engine.PeakFrontier
	}
	res.Unsafe = out.Unsafe
	res.Complete = out.Complete
	res.Stats = paramra.Stats{
		MacroStates:     out.Stats.MacroStates,
		DisTransitions:  out.Stats.DisTransitions,
		EnvConfigs:      out.Stats.EnvConfigs,
		EnvMsgs:         out.Stats.EnvMsgs,
		SaturationSteps: out.Stats.SaturationSteps,
		DedupHits:       out.Engine.DedupHits,
		PeakFrontier:    out.Engine.PeakFrontier,
		Wall:            out.Engine.Wall,
		Workers:         out.Engine.Workers,
	}
	if out.Err != nil {
		return res, out.Err
	}
	if out.Unsafe && out.Violation != nil {
		sp := parent.Child(spGraph)
		g, err := depgraph.FromViolation(sys, out.Violation)
		sp.End()
		res.Witness = out.Violation.Log.Keys()
		if err == nil {
			res.Graph = g
			res.EnvThreadBound = g.CostGoal()
		}
	}
	return res, nil
}

// verifyDatalog mirrors the library's makeP → Datalog backend: enumerate
// the dis-run skeletons, then evaluate one query instance per skeleton on
// Parallelism workers, first derivable goal wins.
func (p *tracedPipeline) verifyDatalog(ctx context.Context, sys *lang.System, res paramra.Result, parent *obs.Span, lc *layerCounts) (paramra.Result, error) {
	opts := p.opts
	maxSk := opts.MaxSkeletons
	if maxSk == 0 {
		maxSk = 100_000
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := parent.Child(spSkeleton)
	var hints encode.Hints
	if opts.Prepass || opts.DatalogHints {
		if ef := absint.Analyze(sys).EnvFacts(); ef != nil {
			hints = ef
		}
	}
	ps, complete, err := encode.AllCtxHints(ctx, sys, maxSk, hints)
	sp.End()
	if err != nil {
		return res, err
	}
	res.Stats.Skeletons = len(ps)
	lc.skeletons += len(ps)
	if workers > len(ps) && len(ps) > 0 {
		workers = len(ps)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sp = parent.Child(spEval)
	var (
		next      atomic.Int64
		unsafeHit atomic.Bool
		rounds    atomic.Int64
		atoms     atomic.Int64
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ps) || cctx.Err() != nil {
					return
				}
				hit, st, _ := datalog.QueryCtx(cctx, ps[i].Prog, ps[i].Goal, nil)
				rounds.Add(int64(st.Rounds))
				atoms.Add(int64(st.Atoms))
				if hit {
					unsafeHit.Store(true)
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	sp.End()
	res.Stats.FixpointRounds = int(rounds.Load())
	res.Stats.DatalogAtoms = int(atoms.Load())
	lc.rounds += res.Stats.FixpointRounds
	lc.atoms += res.Stats.DatalogAtoms
	res.Unsafe = unsafeHit.Load()
	res.Complete = res.Unsafe || complete
	if err := ctx.Err(); err != nil && !res.Unsafe {
		res.Complete = false
		return res, err
	}
	return res, nil
}

// confirm mirrors paramra.ConfirmViolation as raserved calls it: concrete
// instances with 0..min(maxN, EnvThreadBound) env threads under the full RA
// semantics, first violation wins.
func (p *tracedPipeline) confirm(ctx context.Context, sys *lang.System, res paramra.Result, maxN int, parent *obs.Span, lc *layerCounts) (int, error) {
	if !res.Unsafe {
		return 0, errors.New("layerbench: confirm of a SAFE result")
	}
	hi := int64(maxN)
	if res.EnvThreadBound >= 0 && res.EnvThreadBound < hi {
		hi = res.EnvThreadBound
	}
	if sys.Env == nil {
		hi = 0
	}
	sp := parent.Child(spConfirm)
	defer sp.End()
	for n := 0; n <= int(hi); n++ {
		inst, err := ra.NewInstance(sys, n)
		if err != nil {
			return 0, err
		}
		out := inst.ExploreContext(ctx, ra.Limits{
			MaxStates: p.opts.MaxStates,
			Workers:   p.opts.Parallelism,
		})
		lc.confirmStates += out.States
		if out.Unsafe {
			return n, nil
		}
		if out.Err != nil {
			return 0, out.Err
		}
	}
	return 0, fmt.Errorf("layerbench: no confirmation within %d env threads", hi)
}
