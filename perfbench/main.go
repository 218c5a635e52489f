// Command perfbench is the repository's benchmark: three seeded
// workloads over the hgdb reproduction, each measured end to end with
// tracing off, plus a traced mode that attributes time to layers.
//
//	fig5-armed      the Fig 5 RISC-V programs run to completion in-process
//	                with 70–80 seeded conditional breakpoints armed
//	step-session    a live SoC behind server.Server on loopback, stepped by
//	                a JSON controller while a binary+delta observer watches
//	replay-reverse  a recorded, indexed trace replayed forward to seeded
//	                breakpoint hits, then reverse-stepped 1–32 times
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end slots of the named workload; with --trace 1 every
// per-layer metric, measured by running each workload traced. Every
// run checks the program's outputs against independent oracles and
// counts mismatches in failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported number. Name is the key in the result JSON,
// Label the descriptive name printed in the table, N the sample count
// behind it (0 for a count or a single measurement).
type metric struct {
	Name  string
	Label string
	Value float64
	Unit  string
	N     int
}

// result is one workload pass. Checks may come from several
// goroutines (step-session), so they take the lock.
type result struct {
	mu        sync.Mutex
	workload  string
	attempted int64
	failed    int64
	failures  []string
	e2e       []metric
	layers    []metric
}

func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) addE2E(name, label string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, label, v, unit, n})
}

func (r *result) addLayer(name string, v float64, unit string, n int) {
	r.layers = append(r.layers, metric{name, name, v, unit, n})
}

// addLatency reports a distribution's p50 slot — the median over the
// run's windows — and prints its p90 and p99 with the sample count.
// The tail percentiles are printed, not reported: on a small shared
// machine they follow CPU steal and wake-up latency more than the
// program.
func (r *result) addLatency(slot, label string, s samples) {
	r.addE2E(slot+"_p50_us", label+"_p50_us", s.windowed(0.50), "us", len(s))
	r.info(label, s)
}

// info prints a distribution that is not a reported slot.
func (r *result) info(label string, s samples) {
	fmt.Printf("   info %-30s p50 %10.2f  p90 %10.2f  p99 %10.2f us  n=%d\n",
		label, s.windowed(0.5), s.quantile(0.9), s.quantile(0.99), len(s))
}

// addCommon reports the set-up and memory slots every workload shares.
// Callers drop their own sample buffers first, so the heap reading is
// the debugger's state, not the benchmark's.
func (r *result) addCommon(setups []float64) {
	r.addE2E("setup_s", "setup_s", median(setups), "s", len(setups))
	r.addE2E("heap_mb", "heap_mb", liveHeapMB(), "MB", 1)
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupRepeats is how many times each workload builds its set-up in a
// run; setup_s is their median.
const setupRepeats = 5

type workloadFunc func(seed uint64, d time.Duration, tr *tracer) (*result, error)

var workloads = map[string]workloadFunc{
	"fig5-armed":     runFig5,
	"step-session":   runSession,
	"replay-reverse": runReplay,
}

var workloadOrder = []string{"fig5-armed", "step-session", "replay-reverse"}

// outDir holds fixtures and span files; it is the build directory the
// run script also uses, relative to the checkout root.
const outDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	fp := fingerprint()
	fmt.Printf("fingerprint %s\n", mustJSON(fp))
	d := time.Duration(*seconds) * time.Second

	var (
		out     map[string]any
		results []*result
		err     error
	)
	if *trace == 0 {
		var res *result
		res, err = workloads[*name](*seed, d, nil)
		if err == nil {
			results = append(results, res)
			out = metricsJSON(res.e2e)
		}
	} else {
		results, out, err = tracedRun(*name, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	var attempted, failed int64
	for _, res := range results {
		printResult(res, *trace != 0)
		attempted += res.attempted
		failed += res.failed
	}
	if attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was checked")
		os.Exit(1)
	}
	fmt.Printf("error_rate %.6f (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	fmt.Println(mustJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	}))
}

// tracedRun runs every workload twice, untraced then traced, splitting
// the measured time evenly. It reports every per-layer metric, the
// tracing overhead per workload, and the share of each workload's
// traced blocking path the layer self times leave unexplained.
func tracedRun(first string, seed uint64, d time.Duration) ([]*result, map[string]any, error) {
	order := []string{first}
	for _, w := range workloadOrder {
		if w != first {
			order = append(order, w)
		}
	}
	slice := d / time.Duration(2*len(order))
	if slice < time.Second {
		slice = time.Second
	}
	var results []*result
	var layers []metric
	for _, w := range order {
		plain, err := workloads[w](seed, slice, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s untraced: %w", w, err)
		}
		tr := newTracer()
		traced, err := workloads[w](seed, slice, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced: %w", w, err)
		}
		if err := tr.write(filepath.Join(outDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", w, seed)); err != nil {
			return nil, nil, fmt.Errorf("%s: write spans: %w", w, err)
		}
		// The tracing overhead compares the workload's throughput slot
		// traced against untraced.
		base, withTrace := e2eValue(plain, "rate_per_s"), e2eValue(traced, "rate_per_s")
		traced.addLayer("trace.overhead_pct."+w, 100*(base/withTrace-1), "%", 0)
		results = append(results, plain, traced)
		layers = append(layers, traced.layers...)
	}
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	return results, metricsJSON(layers), nil
}

func e2eValue(r *result, name string) float64 {
	for _, m := range r.e2e {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func metricsJSON(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	return out
}

func printResult(r *result, withLayers bool) {
	fmt.Printf("== %s: %d checks, %d failed\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Printf("   FAIL %s\n", f)
	}
	for _, m := range r.e2e {
		fmt.Printf("   %-26s %-22s %14.4f %-5s n=%d\n", m.Name, m.Label, m.Value, m.Unit, m.N)
	}
	if withLayers {
		for _, m := range r.layers {
			fmt.Printf("   layer %-34s %14.4f %-5s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
}

// fingerprint identifies the machine a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
