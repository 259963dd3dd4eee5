// Command perfbench is the repository's end-to-end benchmark. It serves
// a fixed, seeded operation sequence through server.Server.ServeHTTP
// in-process with one closed-loop client, checks every answer against
// its own brute-force evaluation, and prints the end-to-end metrics; with
// --trace 1 it instead times calls into each layer's public functions
// and prints the per-layer metrics. See README.md.
//
//	perfbench --workload archive-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// minRounds keeps enough set-ups in a run for a median set-up time.
const minRounds = 3

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: archive-read, ingest-churn or sharded-tenants")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measurement length in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced layer run and prints per-layer metrics")
		scratch = flag.String("scratch", ".bench_build", "directory for snapshots and the span file")
	)
	flag.Parse()
	w, err := makeWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	r := &runner{w: w}
	build, err := r.prepare(*scratch)
	if r.spill != "" {
		defer os.RemoveAll(r.spill)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: preparing inputs: %v\n", err)
		return 2
	}
	fmt.Printf("workload %s seed %d: GOMAXPROCS %d NumCPU %d, %d ops per round, repeated reads %.3f\n",
		w.name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), len(w.seq), w.repeatShare())

	budget := time.Duration(*seconds) * time.Second
	var metrics []metric
	if *trace == 1 {
		tr := newTraceRun(r, *seed, build)
		if err := tr.run(budget); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		metrics = tr.metrics()
		if err := tr.write(*scratch); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
	} else {
		start := time.Now()
		for rounds := 0; rounds < minRounds || time.Since(start) < budget; rounds++ {
			if err := r.timedRound(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 2
			}
		}
		metrics = r.endToEnd()
	}
	return report(r, metrics)
}

// endToEnd derives the user-visible metrics. Every round replays the
// same sequence, so each operation's latency is taken as the median of
// its replays: time the VM's host steals from one replay does not count,
// the operation's own cost does. Latency quantiles are over these
// per-operation medians, and throughput is the sequence's length over
// their sum. Set-up time and peak memory are medians over rounds.
func (r *runner) endToEnd() []metric {
	var setups, rss []float64
	for _, s := range r.rounds {
		setups = append(setups, s.setup)
		rss = append(rss, s.rssMiB)
	}
	var reads, writes []float64
	total := 0.0
	col := make([]float64, len(r.rounds))
	for i := range r.w.seq {
		for j := range r.rounds {
			col[j] = r.rounds[j].lat[i]
		}
		d := median(col)
		total += d
		switch k := r.w.seq[i].kind; {
		case k.isRead():
			reads = append(reads, d)
		case k.isWrite():
			writes = append(writes, d)
		}
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"throughput_ops", float64(len(r.w.seq)) / total * 1e3, "1/s"},
		{"read_p50_ms", quantile(reads, 0.50), "ms"},
		{"read_p99_ms", quantile(reads, 0.99), "ms"},
		{"write_p50_ms", quantile(writes, 0.50), "ms"},
		{"write_p95_ms", quantile(writes, 0.95), "ms"},
		{"rss_peak_mb", median(rss), "MiB"},
	}
}

// report prints the per-operation accounting, every metric by name and
// unit, and the result line. A wrong answer or a failed operation makes
// the exit code 1: no workload has an operation that is meant to fail,
// so a refused request (a 429 or 503 shed fast, say) must not pass as a
// faster one.
func report(r *runner, metrics []metric) int {
	res := result{Correct: r.checkErr == nil, Metrics: map[string]map[string]any{}}
	for k := opKind(0); k < numKinds; k++ {
		fmt.Printf("op %-8s attempted %6d failed %d\n", kindNames[k], r.attempted[k], r.failed[k])
		res.Attempted += r.attempted[k]
		res.Failed += r.failed[k]
	}
	for _, m := range metrics {
		fmt.Printf("metric %-28s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if r.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %v\n", r.checkErr)
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d operations failed; the workload expects none\n", res.Failed)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
