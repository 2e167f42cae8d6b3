package main

import (
	"context"
	"fmt"
	"math/rand"

	"runtime"
	"runtime/debug"
	"time"

	"paramra"
	"paramra/internal/bench"
	"paramra/internal/lang"
	"paramra/internal/obs"
)

// corpusWorkloads maps each corpus workload to the Options its pipeline
// runs with: the raverify defaults (prepass on), and the prepass off. Both
// run at Parallelism 2, no cache.
var corpusWorkloads = map[string]paramra.Options{
	"corpus-default":  {Prepass: true, Parallelism: workers},
	"corpus-fixpoint": {Parallelism: workers},
}

// entryBudget bounds one corpus verification; running past it counts as a
// failure.
const entryBudget = 60 * time.Second

// corpusEntry is one corpus system with its hand-written verdict.
type corpusEntry struct {
	name   string
	src    string
	sys    *lang.System
	unsafe bool
}

func loadCorpus() ([]corpusEntry, error) {
	var out []corpusEntry
	for _, e := range bench.Corpus() {
		sys, err := lang.ParseSystem(e.Src)
		if err != nil {
			return nil, fmt.Errorf("corpus entry %s: %w", e.Name, err)
		}
		if err := sys.Validate(); err != nil {
			return nil, fmt.Errorf("corpus entry %s: %w", e.Name, err)
		}
		out = append(out, corpusEntry{name: e.Name, src: e.Src, sys: sys, unsafe: e.Want == bench.Unsafe})
	}
	return out, nil
}

// runCorpus measures one corpus workload. Untraced, each pass parses and
// verifies every entry through paramra.Verify in a seed-shuffled order. Traced,
// each entry additionally runs through the traced layer composition, which
// must agree with paramra.Verify.
func runCorpus(cfg runConfig, opts paramra.Options, rep *report) error {
	setups := make([]float64, 0, corpusSetups)
	var entries []corpusEntry
	for i := 0; i < corpusSetups; i++ {
		// From a collected heap each time, so no set-up pays for a
		// collection the one before it left due.
		runtime.GC()
		c0 := cpuSeconds()
		var err error
		if entries, err = loadCorpus(); err != nil {
			return err
		}
		setups = append(setups, cpuSeconds()-c0)
	}
	rep.metric("setup_s", median(setups))

	rng := rand.New(rand.NewSource(cfg.seed))
	var (
		perEntry      = make([][]float64, len(entries))
		perEntryCPU   = make([][]float64, len(entries))
		passes        []float64
		verifications int
		pipe          = &tracedPipeline{opts: opts}
		capture       = obs.NewCapture("")
		lc            layerCounts
		untraced      time.Duration
		traced        time.Duration
	)
	debug.FreeOSMemory()
	rt0 := readRuntime()
	start := time.Now()
	// The first pass always runs whole. After it an entry runs only if, as
	// long as its last verification, it still ends within the run's
	// duration. A pass that skips an entry is not counted as a pass, but its
	// verifications count as samples, so the cheap entries keep being
	// sampled while the expensive ones no longer fit; the run ends with the
	// first pass in which nothing fits.
	last := make([]time.Duration, len(entries))
	var (
		passAlloc uint64
		passRSS   []float64
		passCPU   []float64
		cal       calibration
	)
	for ran := true; ran; {
		ran = false
		complete := true
		order := rng.Perm(len(entries))
		if err := resetPeakRSS(); err != nil {
			return err
		}
		a0 := heapAllocBytes()
		var cpu float64
		for _, i := range order {
			if len(passes) > 0 && time.Since(start)+last[i] > cfg.duration {
				complete = false
				continue
			}
			ran = true
			e := entries[i]
			rep.attempted++
			// Each verification starts from a collected heap, as a CLI call
			// does, so an entry does not pay for the garbage of the one
			// before it.
			runtime.GC()
			ctx, cancel := context.WithTimeout(context.Background(), entryBudget)
			t0, c0 := time.Now(), cpuSeconds()
			sys, err := paramra.Parse(e.src)
			var res paramra.Result
			if err == nil {
				res, err = paramra.Verify(ctx, sys, opts)
			}
			dt := time.Since(t0)
			dc := cpuSeconds() - c0
			cpu += dc
			untraced += dt
			rep.checkVerdict(e.name, e.unsafe, res, err)
			rep.exactCounts(e.name, map[string]int64{"macro_states": int64(res.Stats.MacroStates)})
			if cfg.trace {
				runtime.GC()
				root := capture.Tracer.Start("entry", nil)
				var elc layerCounts
				t1 := time.Now()
				sp := root.Child(spParse)
				tsys, terr := lang.ParseSystem(e.src)
				sp.End()
				var tres paramra.Result
				if terr == nil {
					tres, terr = pipe.verify(ctx, tsys, root, &elc)
				}
				root.End()
				traced += time.Since(t1)
				rep.checkParity(e.name, res, err, tres, terr)
				// A replay that finds the violation stops at a schedule-dependent
				// state count; only replays that run to their end are exact.
				if elc.prepassRan && !(elc.prepassDecided && tres.Unsafe) {
					rep.exactCounts(e.name, map[string]int64{"replay_states": int64(elc.replayStates)})
				}
				lc.add(elc)
			}
			cancel()
			last[i] = time.Since(t0)
			perEntry[i] = append(perEntry[i], float64(dt)/1e6)
			perEntryCPU[i] = append(perEntryCPU[i], dc)
			verifications++
		}
		if complete {
			// The pass's wall time counts only its verifications, not the
			// collections between them.
			var wall float64
			for _, i := range order {
				wall += perEntry[i][len(perEntry[i])-1]
			}
			passes = append(passes, wall/1e3)
			passCPU = append(passCPU, cpu)
			passAlloc += heapAllocBytes() - a0
			rss, err := peakRSSMB()
			if err != nil {
				return err
			}
			passRSS = append(passRSS, rss)
		}
		if ran {
			cal.run()
		}
	}
	rt := readRuntime().since(rt0)
	n := float64(len(passes))
	// Per-layer figures are per pass-worth of verifications.
	units := float64(verifications) / float64(len(entries))

	// A corpus workload has one caller and no server: a request is one
	// entry's verification, and the latency figures are taken over the
	// entries' median verdict times, so each entry weighs the same however
	// often the run repeated it.
	meds := make([]float64, len(perEntry))
	cpuMeds := make([]float64, len(perEntry))
	for i, xs := range perEntry {
		meds[i] = median(xs)
		cpuMeds[i] = median(perEntryCPU[i])
		rep.note("entry %s median %.3f ms, CPU %.3f ms", entries[i].name, meds[i], cpuMeds[i]*1e3)
	}
	rep.cpuMetrics(median(passCPU), geomean(cpuMeds), &cal)
	rep.metric("alloc_mb", float64(passAlloc)/n/1e6)
	rep.metric("peak_rss_mb", median(passRSS))
	rep.note("wall: pass median %.4f s; entry medians geomean %.4f ms, median %.4f ms, largest %.3f ms",
		median(passes), geomean(meds), median(meds), maxOf(meds))
	rep.runtimeMetrics(rt, units)
	rep.note("passes=%d entries=%d", len(passes), len(entries))

	if cfg.trace {
		spans, err := capture.Spans()
		if err != nil {
			return fmt.Errorf("reading the captured trace: %w", err)
		}
		rep.layerMetrics(selfTimes(spans), lc, units)
		rep.prepassMetrics(spans, units)
		rep.layer("bench.trace_overhead_frac", float64(traced-untraced)/float64(untraced))
	}
	return nil
}
