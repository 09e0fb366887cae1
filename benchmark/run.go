package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	root      string // checkout root: BENCHMARK.json, .bench_build/, benchmark/out/
	serverBin string
	seed      uint64
	window    time.Duration // the contract's --seconds
	trace     bool
	short     bool
	sc        scale
	ct        *contract
}

// hostInfo is the run hygiene record: enough to tell whether two
// reports are comparable and whether the box was quiet.
type hostInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	FSType     string  `json:"data_dir_fs"`
	Load1      float64 `json:"load1_at_start"`
}

// runRecord is one run of one workload: a line of the -out file and the
// unit -compare works on.
type runRecord struct {
	Workload        string              `json:"workload"`
	Seed            uint64              `json:"seed"`
	Seconds         float64             `json:"seconds"`
	Trace           bool                `json:"trace"`
	Short           bool                `json:"short,omitempty"`
	Host            hostInfo            `json:"host"`
	Flags           []string            `json:"flags,omitempty"` // "noisy", "loadgen-heavy"
	LoadgenCPUShare float64             `json:"loadgen_cpu_share"`
	Clients         int                 `json:"clients"`
	WindowSeconds   float64             `json:"window_s"`
	Correct         bool                `json:"correct"`
	Attempted       int                 `json:"attempted"`
	Failed          int                 `json:"failed"`
	Failures        []string            `json:"failures,omitempty"` // the first few reasons
	Metrics         map[string]measured `json:"metrics"`
}

func readHost(root, dataDir string) hostInfo {
	h := hostInfo{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), FSType: "unknown"}
	// The driver's checkout is not a git repository; a developer's is.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		h.FSType = names[int64(st.Type)]
		if h.FSType == "" {
			h.FSType = fmt.Sprintf("0x%x", st.Type)
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64) // stays 0 if /proc is odd; the run is then not marked noisy
		}
	}
	return h
}

// environment is one set-up: a booted server, generated inputs, a warm
// cache.
type environment struct {
	srv *server
	dir string // everything of this set-up: journal and input files
	in  string // the input files
}

func (e *environment) close() {
	e.srv.stop()
	os.RemoveAll(e.dir)
}

// setUp boots a fresh server on a fresh data directory, writes the
// workload's input files and runs its warm-up jobs. The returned
// seconds are setup_s: exec to first /healthz 200, plus input
// generation, plus warm-up.
func setUp(ctx context.Context, cfg config, w workload, hc *http.Client, tmp string, traceOn bool) (*environment, float64, error) {
	dir, err := os.MkdirTemp(tmp, "env-")
	if err != nil {
		return nil, 0, err
	}
	e := &environment{dir: dir, in: filepath.Join(dir, "in")}
	t0 := time.Now()
	if e.srv, err = startServer(ctx, hc, cfg.serverBin, filepath.Join(dir, "data"), traceOn); err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if w.name == "psa-reuse" {
		for s := 0; s < w.streams() && err == nil; s++ {
			for c := 0; c < w.reuseChainsOf(cfg.sc, s) && err == nil; c++ {
				err = writeChain(chainDir(e.in, s, c), w.synthSeed(cfg.seed, s*1000+c), cfg.sc.reuseAtoms, cfg.sc.reuseFrames)
			}
		}
	}
	if err == nil {
		warm, _ := runClients(ctx, hc, e.srv.base, w, cfg.seed, cfg.sc, e.in, w.clients, time.Hour, cfg.sc.warmup)
		for _, o := range warm {
			if o.Err != nil {
				err = fmt.Errorf("warm-up job: %w", o.Err)
			}
		}
	}
	if err != nil {
		e.close()
		return nil, 0, err
	}
	return e, time.Since(t0).Seconds(), nil
}

// tracedShare is the part of a workload's job count (and of the
// contract's seconds) each load window of a traced run gets.
const tracedShare = 0.2

// window is one closed-loop measurement against a set-up environment.
type window struct {
	outs          []outcome
	wall          float64   // first submission → last result, s
	serverCPU     float64   // server utime+stime spent inside the window, s
	loadgenCPU    float64   // the generator's own, s
	rss           []float64 // server VmRSS sampled every 50 ms of the window, MB
	peakRSS       float64   // server VmHWM after the window, MB
	before, after *scrape
}

// measure runs one load window: share of the workload's job count, with
// the same share of the contract's seconds (and a little more) as the
// deadline.
func measure(ctx context.Context, cfg config, w workload, hc *http.Client, e *environment, share float64) (*window, error) {
	var (
		win window
		err error
	)
	if win.before, err = takeScrape(ctx, hc, e.srv.base); err != nil {
		return nil, err
	}
	pid := e.srv.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	self0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	limit := int(float64(w.jobs) * share)
	if cfg.sc.maxJobs > 0 {
		limit = cfg.sc.maxJobs
	}
	d := time.Duration(float64(cfg.window) * math.Min(1, 1.25*share))
	sampled := make(chan []float64)
	stop := make(chan struct{})
	go func() {
		var rss []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := rssMB(pid, "VmRSS"); err == nil {
				rss = append(rss, mb)
			}
			select {
			case <-stop:
				sampled <- rss
				return
			case <-tick.C:
			}
		}
	}()
	outs, wall := runClients(ctx, hc, e.srv.base, w, cfg.seed, cfg.sc, e.in, 0, d, limit)
	close(stop)
	win.rss = <-sampled
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if win.peakRSS, err = rssMB(pid, "VmHWM"); err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, fmt.Errorf("server gone after the window: %w: %s", err, e.srv.stderr.String())
	}
	self1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	// A client may read a result a moment before the server journals the
	// job's last transition; scrape until the journal has gone quiet so
	// that counts repeat exactly.
	for quiet := false; !quiet; {
		prev := win.after
		if win.after, err = takeScrape(ctx, hc, e.srv.base); err != nil {
			return nil, err
		}
		quiet = prev != nil && delta(prev, win.after, "mdtask_wal_appends_total") == 0
		if !quiet {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("no job completed in %v", d)
	}
	win.outs, win.wall, win.serverCPU, win.loadgenCPU = outs, wall.Seconds(), cpu1-cpu0, self1-self0
	return &win, nil
}

// runWorkload is one run of the contract: set up (several times, the
// last one kept), measure for the window, verify with the clock
// stopped, and in a traced run gather the per-layer metrics.
func runWorkload(ctx context.Context, cfg config, w workload) (*runRecord, error) {
	tmpRoot := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rec := &runRecord{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace, Short: cfg.short,
		Clients: w.clients, Host: readHost(cfg.root, tmp),
	}
	if rec.Host.Load1 > 0.5 {
		rec.Flags = append(rec.Flags, "noisy")
	}
	hc := newHTTPClient(w.clients)
	defer hc.CloseIdleConnections()

	// No request carries its own timeout; a wedged server ends the run
	// here, well inside the contract's limit for one invocation.
	ctx, cancel := context.WithTimeout(ctx, cfg.window+2*time.Minute)
	defer cancel()

	share, floor := 1.0, cfg.sc.setupFloor
	if cfg.trace {
		// The traced run spends its time in the replay and the
		// micro-passes; its load windows only feed counts and the
		// tracing-cost comparison.
		share, floor = tracedShare, 0
	}
	// Set up repeatedly — a cheap set-up many times, a dear one three
	// times — and keep the last; setup_s is the median.
	var (
		env    *environment
		setups []float64
		total  float64
	)
	for {
		var s float64
		if env, s, err = setUp(ctx, cfg, w, hc, tmp, true); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		total += s
		if n := len(setups); floor == 0 || n >= 15 || (n >= 3 && total >= floor.Seconds()) {
			break
		}
		env.close()
	}
	defer func() { env.close() }()

	win, err := measure(ctx, cfg, w, hc, env, share)
	if err != nil {
		return nil, err
	}
	rec.Failed = verify(win.outs, cfg.sc.refChecks)
	rec.Attempted, rec.WindowSeconds = len(win.outs), win.wall
	rec.Correct = rec.Failed == 0
	for _, o := range win.outs {
		if o.Failure != "" && len(rec.Failures) < 5 {
			rec.Failures = append(rec.Failures, fmt.Sprintf("%s job %d/%d: %s", w.name, o.Stream, o.Index, o.Failure))
		}
	}
	rec.LoadgenCPUShare = win.loadgenCPU / (win.wall * float64(runtime.NumCPU()))
	if rec.LoadgenCPUShare > 0.15 {
		rec.Flags = append(rec.Flags, "loadgen-heavy")
	}

	vals := make(map[string]float64)
	endToEnd(vals, win, setups)
	defs := cfg.ct.EndToEnd
	if cfg.trace {
		defs = cfg.ct.PerLayer
		if err := perLayer(ctx, cfg, w, hc, tmp, env, win, vals); err != nil {
			return nil, err
		}
	}
	rec.Metrics, err = report(defs, vals)
	return rec, err
}

// endToEnd computes the user-visible metrics of one window.
func endToEnd(vals map[string]float64, win *window, setups []float64) {
	var lat []float64
	for _, o := range win.outs {
		if o.Err == nil {
			lat = append(lat, o.Latency.Seconds())
		}
	}
	vals["setup_s"] = median(setups)
	vals["job_latency_p50_s"] = percentile(lat, 0.5)
	// The tail is a per-layer metric: on a shared 2-vCPU box its spread
	// between runs reaches the largest bound the contract allows.
	vals["jobs.latency_p90_s"] = percentile(lat, 0.9)
	vals["jobs_per_s"] = float64(len(lat)) / win.wall
	vals["cpu_s_per_job"] = win.serverCPU / float64(len(win.outs))
	vals["rss_p50_mb"] = median(win.rss)
}

// perLayer fills the per-layer metrics of a traced run from its three
// sources: counts read off the load window (A), the traced replay (B)
// and the fixed-input micro-passes (C).
func perLayer(ctx context.Context, cfg config, w workload, hc *http.Client, tmp string, env *environment, win *window, vals map[string]float64) error {
	for _, d := range cfg.ct.PerLayer {
		vals[d.Name] = 0 // a layer off this workload's path reports 0
	}
	layerCounts(vals, win)

	// obs: the same window again on a fresh server with span collection
	// off; what tracing costs is the CPU per job it adds.
	off, _, err := setUp(ctx, cfg, w, hc, tmp, false)
	if err != nil {
		return err
	}
	offWin, err := measure(ctx, cfg, w, hc, off, tracedShare)
	off.close()
	if err != nil {
		return err
	}
	on := win.serverCPU / float64(len(win.outs))
	vals["obs.trace_on_cost_share"] = 1 - offWin.serverCPU/float64(len(offWin.outs))/on

	// wal: recovery cost of the journal this workload left behind. The
	// input files stay: the replay below reads them.
	env.srv.stop()
	if vals["wal.replay_s"], err = walReplaySeconds(env.srv.dataDir); err != nil {
		return err
	}

	rec := newRecorder()
	var list []replayJob
	for s := w.clients; s < w.streams(); s++ {
		for i := 0; i < cfg.sc.warmup; i++ {
			if j, ok := w.job(cfg.seed, cfg.sc, env.in, s, i); ok {
				list = append(list, replayJob{job: j})
			}
		}
	}
	for i := 0; i < cfg.sc.replayJobs; i++ {
		if j, ok := w.job(cfg.seed, cfg.sc, env.in, 0, i); ok {
			list = append(list, replayJob{job: j, timed: true})
		}
	}
	replayed, err := replay(rec, list, tmp)
	if err != nil {
		return err
	}
	micro, err := microPasses(rec, cfg.sc, tmp)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{replayed, micro} {
		for k, v := range m {
			vals[k] = v
		}
	}
	vals["trace.coverage"] = vals["trace.job_total_s"] / vals["job_latency_p50_s"]

	raw, err := rec.chromeTrace()
	if err != nil {
		return err
	}
	out := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+w.name+".json"), raw, 0o644)
}

// layerCounts derives the source-A metrics: what the job statuses and
// the before/after scrapes of the server's metrics endpoints say about
// the window.
func layerCounts(vals map[string]float64, win *window) {
	n := float64(len(win.outs))
	nproc := float64(runtime.NumCPU())
	var (
		submit                                []float64
		queue, run, maxShare, eff             []float64
		staging, execution, framework         []float64
		polls, hits, misses, saved, jobHits   float64
		streamed, peak, compute, tasks, shuff float64
		executed                              float64
	)
	for _, o := range win.outs {
		st, m := o.Status, o.Status.Metrics
		polls += float64(o.Polls)
		if o.Err == nil {
			submit = append(submit, o.Submit.Seconds())
		}
		hits += float64(m.BlockCacheHits)
		misses += float64(m.BlockCacheMisses)
		saved += float64(m.BlockCacheBytesSaved)
		streamed += float64(m.BytesStreamed)
		if p := float64(m.PeakResidentFrames); p > peak {
			peak = p
		}
		if st.CacheHit {
			jobHits++
		}
		if st.Started == nil || st.Finished == nil {
			continue // a whole-job hit never ran
		}
		executed++
		queue = append(queue, st.Started.Sub(st.Created).Seconds())
		r := st.Finished.Sub(*st.Started).Seconds()
		run = append(run, r)
		c := float64(m.ComputeNS) / 1e9
		compute += c
		tasks += float64(m.Tasks)
		shuff += float64(m.BytesShuffled)
		if c > 0 && r > 0 {
			maxShare = append(maxShare, float64(m.MaxTaskNS)/1e9/c)
			eff = append(eff, c/(nproc*r))
		}
		if lat := o.Latency.Seconds(); o.Err == nil && lat > 0 {
			// The paper's decomposition of one job's time to solution:
			// staging (the submit path), execution (what a perfect
			// schedule of its tasks on nproc workers needs) and framework
			// overhead (the rest of the run); what is left of the latency
			// is queueing, polling and the result GET.
			ideal := math.Max(float64(m.MaxTaskNS)/1e9, c/nproc)
			staging = append(staging, o.Submit.Seconds()/lat)
			execution = append(execution, ideal/lat)
			framework = append(framework, math.Max(r-ideal, 0)/lat)
		}
	}
	vals["jobs.submit_latency_p50_s"] = median(submit)
	vals["jobs.peak_rss_mb"] = win.peakRSS
	vals["jobs.queue_wait_s"] = median(queue)
	vals["jobs.polls_per_job"] = polls / n
	vals["wal.appends_per_job"] = delta(win.before, win.after, "mdtask_wal_appends_total") / n
	vals["wal.compactions"] = delta(win.before, win.after, "mdtask_wal_snapshots_total")
	vals["obs.metrics_scrape_s"] = (win.before.promSeconds + win.after.promSeconds) / 2
	if hits+misses > 0 {
		vals["blockstore.block_hit_ratio"] = hits / (hits + misses)
	}
	vals["blockstore.job_hit_ratio"] = jobHits / n
	vals["blockstore.bytes_saved_per_job"] = saved / n
	vals["blockstore.evictions"] = float64(win.after.service.BlockCache.Evictions - win.before.service.BlockCache.Evictions)
	vals["blockstore.bytes"] = float64(win.after.service.BlockCache.Bytes)
	vals["traj.bytes_streamed_per_job"] = streamed / n
	vals["traj.peak_resident_frames"] = peak
	if executed > 0 {
		vals["engine.task_compute_s"] = compute / executed
		vals["engine.tasks_per_job"] = tasks / executed
		vals["engine.bytes_shuffled_per_job"] = shuff / executed
	}
	vals["engine.run_s"] = median(run)
	vals["engine.max_task_share"] = median(maxShare)
	vals["engine.parallel_efficiency"] = median(eff)
	vals["jobs.staging_share"] = median(staging)
	vals["engine.execution_share"] = median(execution)
	vals["engine.framework_overhead_share"] = median(framework)
}
