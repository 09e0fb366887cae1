package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// scale fixes the shapes of a run. The full scale is calibrated so that
// every workload completes at least 100 timed jobs in the contract's
// run_seconds on the 2-core reference machine (see README.md); the
// short scale is what the tests run.
type scale struct {
	psaCount, psaAtoms, psaFrames int           // psa-cold ensemble
	leafletAtoms                  int           // leaflet-cold membrane
	reuseAtoms, reuseFrames       int           // psa-reuse trajectories
	reuseChains                   int           // chains written per psa-reuse client
	warmup                        int           // unrecorded warm-up jobs per client
	maxJobs                       int           // timed jobs per client, overriding the workload's own count (0: keep it)
	setupFloor                    time.Duration // set-ups repeat until they have taken this long in total (three at least)
	refChecks                     int           // jobs recomputed in-process per run
	replayJobs                    int           // timed jobs replayed under spans in a traced run
	hausTrajs                     int           // trajectories of the hausdorff micro-pass
	microAtoms                    int           // atom count of the balltree/graph/leaflet micro-passes
	microReps                     int           // repeats of the engine-matrix passes
	microBudget                   time.Duration // length of each timed loop of a micro-pass
}

var (
	fullScale = scale{
		psaCount: 8, psaAtoms: 1024, psaFrames: 64,
		leafletAtoms: 32768,
		reuseAtoms:   512, reuseFrames: 128, reuseChains: 5,
		warmup: 3, setupFloor: 3 * time.Second, refChecks: 5, replayJobs: 10,
		hausTrajs: 8, microAtoms: 16384, microReps: 3, microBudget: 60 * time.Millisecond,
	}
	shortScale = scale{
		psaCount: 4, psaAtoms: 32, psaFrames: 16,
		leafletAtoms: 512,
		reuseAtoms:   16, reuseFrames: 32, reuseChains: 1,
		warmup: 1, maxJobs: 10, refChecks: 2, replayJobs: 3,
		hausTrajs: 3, microAtoms: 512, microReps: 1, microBudget: time.Millisecond,
	}
)

// Chain layout of psa-reuse: a chain is reuseChainFiles trajectories;
// ens-k/ hard-links the first k. A client walks a chain as the cold
// reuseBase-trajectory ensemble, then growth steps up to
// reuseChainFiles trajectories with an exact resubmit after every
// second step.
const (
	reuseBase       = 4
	reuseChainFiles = 10
)

// reuseWalk lists one chain's jobs as ensemble sizes; a negative entry
// resubmits that (positive) size.
var reuseWalk = []int{4, 5, 6, -5, 7, 8, -7, 9, 10, -9}

// workload is one named traffic mix. jobs is the timed job count per
// client: fixed, so that counters and the server's retained state
// repeat from run to run, and sized so that the reference machine
// finishes inside the contract's run_seconds; the window's deadline
// only cuts a run short on a slower machine.
type workload struct {
	name    string
	index   uint64 // position in the contract; salts the synth seeds
	clients int
	jobs    int
}

var workloads = []workload{
	{name: "psa-cold", index: 0, clients: 1, jobs: 120},
	{name: "serve-small", index: 1, clients: 2, jobs: 4000},
	{name: "psa-reuse", index: 2, clients: 2, jobs: 50}, // reuseChains whole chains
	{name: "leaflet-cold", index: 3, clients: 1, jobs: 100},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// job is one generated submission and what its result must look like.
type job struct {
	Body     []byte // POST /v1/jobs body
	Analysis string // "psa" or "leaflet"
	N        int    // expected matrix dimension, or membrane atom count
	Seed     uint64 // synth seed of a leaflet job (ground truth is regenerated from it)
	SameAs   int    // index, in the same stream, of the job whose result bytes must repeat; -1: none
}

// streams is the number of independent job streams of a workload: one
// per timed client, then one per warm-up client.
func (w workload) streams() int { return 2 * w.clients }

// splitmix64 is the seed mixer: distinct (seed, workload) pairs get
// unrelated synth-seed ranges.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// synthSeed gives job n of a run its own generator seed. Within a run
// the seeds are distinct, so no synth job is a whole-job cache hit; the
// value stays below 2^53 so any JSON reader keeps it exact.
func (w workload) synthSeed(seed uint64, n int) uint64 {
	return splitmix64(seed*8+w.index)>>12 + uint64(n)
}

// job returns job i of stream s — a pure function of the run seed, the
// workload, the scale and dir (the directory psa-reuse's chains live
// in). Streams 0..clients-1 are the timed clients; the rest feed the
// warm-up. ok is false past the end of a stream (only psa-reuse ends:
// when its chains are used up).
func (w workload) job(seed uint64, sc scale, dir string, s, i int) (j job, ok bool) {
	n := i*w.streams() + s
	j.SameAs = -1
	switch w.name {
	case "psa-cold":
		j.Analysis, j.N = "psa", sc.psaCount
		j.Body = []byte(fmt.Sprintf(`{"analysis":"psa","engine":"dask","method":"pruned","synth":{"count":%d,"atoms":%d,"frames":%d,"seed":%d}}`,
			sc.psaCount, sc.psaAtoms, sc.psaFrames, w.synthSeed(seed, n)))
	case "serve-small":
		j.Analysis, j.N = "psa", 4
		j.Body = []byte(fmt.Sprintf(`{"analysis":"psa","synth":{"seed":%d}}`, w.synthSeed(seed, n)))
	case "leaflet-cold":
		j.Analysis, j.N, j.Seed = "leaflet", sc.leafletAtoms, w.synthSeed(seed, n)
		j.Body = []byte(fmt.Sprintf(`{"analysis":"leaflet","engine":"dask","approach":"tree","synth":{"atoms":%d,"seed":%d}}`,
			sc.leafletAtoms, j.Seed))
	case "psa-reuse":
		chain, step := i/len(reuseWalk), i%len(reuseWalk)
		if chain >= w.reuseChainsOf(sc, s) {
			return job{}, false
		}
		k := reuseWalk[step]
		if k < 0 {
			k = -k
			for back := step - 1; back >= 0; back-- {
				if reuseWalk[back] == k {
					j.SameAs = i - (step - back)
					break
				}
			}
		}
		j.Analysis, j.N = "psa", k
		// tasks ≥ N² forces one block per trajectory pair, the unit the
		// block store shares between growth steps.
		j.Body = []byte(fmt.Sprintf(`{"analysis":"psa","engine":"spark","method":"pruned","tasks":256,"max_resident_frames":16,"path":%q}`,
			filepath.Join(chainDir(dir, s, chain), fmt.Sprintf("ens-%02d", k))))
	default:
		return job{}, false
	}
	return j, true
}

// reuseChainsOf is the number of chains stream s owns: timed clients
// get the scale's count, warm-up streams one.
func (w workload) reuseChainsOf(sc scale, s int) int {
	if s < w.clients {
		return sc.reuseChains
	}
	return 1
}

func chainDir(dir string, stream, chain int) string {
	return filepath.Join(dir, fmt.Sprintf("chain-s%d-%03d", stream, chain))
}
