// Command vqibench is the end-to-end benchmark of the data-driven VQI: it
// boots the real vqiserve binary on loopback, drives one seeded workload
// (browse, compose, churn) in a closed loop, or runs the offline
// pattern-selection builds (build), checks every answer, and prints one
// JSON result line. See README.md.
//
//	vqibench -vqiserve bin/vqiserve -work workdir \
//	    --workload browse --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

var workloads = []string{"browse", "compose", "churn", "build"}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = report the per-layer metrics of a traced run")
		bin     = flag.String("vqiserve", "", "vqiserve binary (serving workloads)")
		work    = flag.String("work", ".bench_build/run", "directory for generated files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintf(os.Stderr, "vqibench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, bin, work string) error {
	if !slices.Contains(workloads, name) {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	total0, steal0 := cpuTimes()
	rec := runRecord{Workload: name, Seed: seed, Seconds: seconds, Trace: trace, Conns: runtime.NumCPU(),
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit()}
	var res result
	vals := map[string]float64{}
	measure := time.Duration(seconds * float64(time.Second))
	if name == "build" {
		br, err := runBuildWorkload(seed, seconds, trace)
		if err != nil {
			return err
		}
		res.Attempted = br.attempted
		res.Failed = br.failed
		rec.Failures = br.errs
		rec.Samples = map[string]int{"round": len(br.walls)}
		rec.Slices = map[string][]float64{"round_ms": nil, "cpu_steal_pct": br.steal}
		for _, w := range br.walls {
			rec.Slices["round_ms"] = append(rec.Slices["round_ms"], ms(w))
		}
		rec.Calm = calmest(br.steal)
		buildMetrics(br, vals, trace)
	} else {
		if bin == "" {
			return fmt.Errorf("-vqiserve is required for workload %s", name)
		}
		sr, err := runServe(serveConfig{name: name, bin: bin, dir: dir, seed: seed, measure: measure, trace: trace})
		if err != nil {
			return err
		}
		res.Attempted = len(sr.lr.recs) + sr.extraOps
		res.Failed = sr.cr.failed
		rec.Failures = sr.cr.failures
		serveMetrics(name, sr, vals, &rec)
		rec.Recall = sr.recall
		rec.RebootS = sr.reboot.Seconds()
		rec.Exhausted = sr.lr.exhausted
	}
	res.Correct = res.Failed == 0
	if trace {
		res.Metrics = fill(perLayer, vals)
	} else {
		res.Metrics = fill(endToEnd, vals)
	}
	rec.Values = vals
	total1, steal1 := cpuTimes()
	rec.StealPct = 100 * ratio(steal1-steal0, total1-total0)
	enc, _ := json.Marshal(rec)
	fmt.Fprintf(os.Stderr, "vqibench: record %s\n", enc)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRecord describes a run on stderr: where and how it ran, sample
// counts per operation type, and every value measured.
type runRecord struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Conns      int                  `json:"conns"`
	CPUs       int                  `json:"cpus"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	Commit     string               `json:"commit"`
	Samples    map[string]int       `json:"samples"`
	Slices     map[string][]float64 `json:"slices,omitempty"`
	Calm       []int                `json:"calm,omitempty"` // the slices or rounds the end-to-end figures use
	Recall     float64              `json:"recall_at_10,omitempty"`
	RebootS    float64              `json:"reboot_s,omitempty"`
	Exhausted  bool                 `json:"stream_exhausted,omitempty"`
	StealPct   float64              `json:"cpu_steal_pct"` // CPU time the hypervisor gave to other guests
	Failures   []string             `json:"failures,omitempty"`
	Values     map[string]float64   `json:"values"`
}

// commit is git rev-parse HEAD, or "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// serveMetrics fills the end-to-end values (and the per-operation
// latencies of the vqiserve layer) of a serving run, and the sample
// counts and per-slice figures of its record.
func serveMetrics(name string, sr *serveRun, vals map[string]float64, rec *runRecord) {
	var boots []float64
	for _, b := range sr.boots {
		boots = append(boots, b.Seconds())
	}
	vals["setup_s"] = median(boots)
	vals["peak_rss_mb"] = sr.rss
	// Throughput and the latency percentiles pool the calmer half of the
	// measured slices; the per-operation percentiles pool the whole window.
	var parts [measuredSlices]struct {
		lat []float64
		ok  int
	}
	byKind := map[opKind][]float64{}
	non2xx := 0
	for _, r := range sr.lr.recs {
		i := sr.lr.sliceOf(r)
		if i < 0 {
			continue
		}
		l := ms(r.latency())
		parts[i].lat = append(parts[i].lat, l)
		byKind[r.kind] = append(byKind[r.kind], l)
		if r.ok() {
			parts[i].ok++
		} else if r.err == "" {
			non2xx++
		}
	}
	var tput []float64
	for _, sl := range parts {
		tput = append(tput, float64(sl.ok)/sr.lr.slice.Seconds())
	}
	calm := calmest(sr.lr.steal)
	if len(sr.lr.steal) != measuredSlices {
		calm = calmest(make([]float64, measuredSlices)) // steal unreadable
	}
	var lat []float64
	ok := 0
	for _, i := range calm {
		lat = append(lat, parts[i].lat...)
		ok += parts[i].ok
	}
	vals["throughput_rps"] = float64(ok) / (float64(len(calm)) * sr.lr.slice.Seconds())
	vals["latency_p50_ms"] = quantile(lat, 0.50)
	vals["latency_p90_ms"] = quantile(lat, 0.90)
	rec.Slices = map[string][]float64{"throughput_rps": tput, "cpu_steal_pct": sr.lr.steal}
	rec.Calm = calm
	for k, v := range sr.layers {
		vals[k] = v
	}
	vals["vqiserve.non2xx"] = float64(non2xx)
	rec.Samples = map[string]int{}
	for k, xs := range byKind {
		rec.Samples[k.String()] = len(xs)
		vals["vqiserve."+k.String()+"_p50_ms"] = quantile(xs, 0.50)
		if k == opUpdate {
			vals["vqiserve.update_p90_ms"] = quantile(xs, 0.90)
		} else {
			vals["vqiserve."+k.String()+"_p99_ms"] = quantile(xs, 0.99)
		}
	}
	if name == "churn" {
		vals["ann.recall_at_10"] = sr.recall
	}
}

// buildMetrics fills the values of a build run.
func buildMetrics(br *buildRun, vals map[string]float64, trace bool) {
	var setups []float64
	for _, d := range br.setups {
		setups = append(setups, d.Seconds())
	}
	vals["setup_s"] = median(setups)
	var walls []float64
	var sum time.Duration
	for _, i := range calmest(br.steal) {
		walls = append(walls, ms(br.walls[i]))
		sum += br.walls[i]
	}
	vals["throughput_rps"] = ratio(float64(3*len(walls)), sum.Seconds())
	vals["latency_p50_ms"] = quantile(walls, 0.50)
	vals["latency_p90_ms"] = quantile(walls, 0.90)
	vals["peak_rss_mb"] = vmHWM(os.Getpid())
	var cat, tat, mid []float64
	for _, r := range br.rounds[1:] {
		cat = append(cat, r.catapult.Seconds())
		tat = append(tat, r.tattoo.Seconds())
		mid = append(mid, r.midas.Seconds())
	}
	vals["catapult.total_s"] = median(cat)
	vals["tattoo.total_s"] = median(tat)
	vals["midas.total_s"] = median(mid)
	sc := br.rounds[0].scores
	vals["vqi.pattern_score"] = (sc[0] + sc[1] + sc[2]) / 3
	if !trace {
		return
	}
	var covered, wall time.Duration
	totals := map[string]time.Duration{}
	for _, r := range br.traced {
		_, roots := selfTimes(r.spans)
		covered += roots
		wall += r.catapult + r.tattoo + r.midas
		for _, sp := range r.spans {
			totals[sp.Name] += sp.Dur
		}
	}
	n := float64(len(br.traced))
	for name, d := range totals {
		vals[name+"_ms"] = ms(d) / n
	}
	vals["trace.coverage"] = ratio(float64(covered), float64(wall))
	warnCoverage(vals["trace.coverage"])
}

// warnCoverage flags a traced run whose spans leave more than 5% of the
// traced wall time unattributed.
func warnCoverage(c float64) {
	if c < 0.95 {
		logf("warning: spans cover only %.1f%% of the traced wall time (want at least 95%%)", 100*c)
	}
}
