// Command perfbench is PRISM's end-to-end benchmark. It builds a real
// topology over loopback TCP through the same public APIs the ismd and
// lisnode daemons wire up, drives it from one seeded generator thread,
// checks every delivered record, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// An untraced run reports the end-to-end metrics. A traced run
// (-trace 1) measures half its time untraced and half with spans
// recorded around every public call, and reports the per-layer
// metrics, the stage table and the tracing overhead.
//
// Run it from the repository root, through run.py (which builds it):
//
//	python3 perfbench/run.py --workload leaf-firehose --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// setupRounds is how many times a run builds its topology; setup_s is
// the median.
const setupRounds = 501

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of PRISM sees, reported by untraced
// runs of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"cpu_ns_per_record", "ns"},
	{"intrusion_ns_per_record", "ns"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload without the layer
// reports 0 and the table marks it n/a.
var perLayer = []metricDef{
	{"lis.emit_ns_per_record", "ns"},
	{"lis.flush_ns_per_flush", "ns"},
	{"lis.records_per_flush", "count"},
	{"tp.wire_bytes_per_record", "B"},
	{"tp.send_ns_per_message", "ns"},
	{"tp.messages_per_record", "count"},
	{"ism.transit_us_p50", "us"},
	{"ism.transit_us_p99", "us"},
	{"ism.arrival_to_dispatch_us_p99", "us"},
	{"ism.hold_back_ratio", "ratio"},
	{"ism.max_held", "count"},
	{"ism.merge_stalls_per_k_records", "count"},
	{"relay.push_ns_per_batch", "ns"},
	{"relay.stalls_per_k_records", "count"},
	{"relay.order_breaks", "count"},
	{"relay.session_dups", "count"},
	{"fault.window_pending_max", "count"},
	{"trace.spool_bytes_per_record", "B"},
	{"tool.dispatch_ns_per_record", "ns"},
	{"tool.capture_to_tool_p50_us", "us"},
	{"tool.capture_to_tool_p90_us", "us"},
	{"tool.capture_to_tool_p99_us", "us"},
	{"runtime.alloc_bytes_per_record", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.schedule_lag_p99_us", "us"},
	{"stage.sequencer_ns_per_record", "ns"},
	{"stage.causal_ns_per_record", "ns"},
	{"stage.colcodec_encode_ns_per_record", "ns"},
	{"stage.colcodec_decode_ns_per_record", "ns"},
	{"stage.spool_encode_ns_per_record", "ns"},
	{"stage.unattributed_ns_per_record", "ns"},
	{"trace.overhead_records_per_s_pct", "%"},
	{"trace.overhead_cpu_ns_per_record_pct", "%"},
	{"trace.overhead_intrusion_ns_per_record_pct", "%"},
	{"trace.overhead_capture_to_tool_p90_us_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same capture")
		seconds = flag.Float64("seconds", 10, "seconds one run measures")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// run measures one workload. An untraced run builds the topology
// setupRounds times (setup_s is the median) and measures the last
// build; a traced run measures one untraced and one traced phase.
func run(w *workload, seed uint64, d time.Duration, traced bool) (*result, error) {
	if traced {
		return runTraced(w, seed, d)
	}
	var setups []float64
	for i := 0; i < setupRounds-1; i++ {
		p, err := w.run(phaseCfg{seed: seed, setupOnly: true})
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, p.setup.Seconds())
	}
	p, err := w.run(phaseCfg{seed: seed, seconds: d})
	if err != nil {
		return nil, err
	}
	setups = append(setups, p.setup.Seconds())
	e2e := endToEndMetrics(p)
	e2e["setup_s"] = median(setups)
	report(w.name, p, endToEnd, e2e)
	return newResult(p, endToEnd, e2e), nil
}

// runTraced measures half of d untraced and half traced, and reports
// the per-layer metrics of the two.
func runTraced(w *workload, seed uint64, d time.Duration) (*result, error) {
	base, err := w.run(phaseCfg{seed: seed, seconds: d / 2})
	if err != nil {
		return nil, err
	}
	traced, err := w.run(phaseCfg{seed: seed, seconds: d / 2, traced: true})
	if err != nil {
		return nil, err
	}
	layer := perLayerMetrics(base, traced)
	tr := traced.tr
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.txt", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d kept (%d over the cap) in %s\n", len(tr.gen)+len(tr.disp), tr.dropped, path)
	report(w.name, base, perLayer, layer)
	res := newResult(base, perLayer, layer)
	if traced.check != nil {
		fmt.Printf("output check failed (traced phase): %v\n", traced.check)
		res.Correct = false
	}
	res.Attempted += traced.captured
	res.Failed += traced.captured - traced.verified
	return res, nil
}

func newResult(p *phase, defs []metricDef, vals map[string]float64) *result {
	res := &result{
		Correct:   p.check == nil,
		Attempted: p.captured,
		Failed:    p.captured - p.verified,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// endToEndMetrics derives the user-visible metrics of an untraced
// phase (setup_s is filled in by the caller).
func endToEndMetrics(p *phase) map[string]float64 {
	return map[string]float64{
		"records_per_s":           p.rate,
		"cpu_ns_per_record":       p.cpuPer,
		"intrusion_ns_per_record": p.intrusion,
		"peak_rss_mb":             peakRSSMB(),
	}
}

// perLayerMetrics derives the traced run's metrics: counter figures
// from the untraced phase, span figures and the stage table from the
// traced one, and the tracing overhead from the two side by side.
func perLayerMetrics(base, traced *phase) map[string]float64 {
	m := map[string]float64{}
	for k, v := range base.layer {
		m[k] = v
	}
	recs := float64(base.verified)
	if base.latOK {
		m["tool.capture_to_tool_p50_us"] = base.p50 / 1e3
		m["tool.capture_to_tool_p90_us"] = base.p90 / 1e3
		m["tool.capture_to_tool_p99_us"] = base.p99 / 1e3
	}
	m["runtime.alloc_bytes_per_record"] = ratio(float64(base.allocBytes), recs)
	m["runtime.gc_cycles"] = float64(base.gcCycles)
	m["runtime.gc_pause_ms"] = float64(base.gcPauseNs) / 1e6
	if base.lag != nil {
		if v, ok := base.lag.quantile(0.99); ok {
			m["gen.schedule_lag_p99_us"] = v / 1e3
		}
	}

	tr := traced.tr
	st := tr.selfTimes()
	captured := float64(traced.captured)
	if st.count[spanEmit] > 0 {
		m["lis.emit_ns_per_record"] = float64(st.ns[spanEmit]) / captured
	}
	if st.count[spanFlush] > 0 {
		m["lis.flush_ns_per_flush"] = float64(st.ns[spanFlush]) / float64(st.count[spanFlush])
	}
	if st.count[spanSend] > 0 {
		m["tp.send_ns_per_message"] = float64(st.ns[spanSend]) / float64(st.count[spanSend])
	}
	if st.count[spanPush] > 0 {
		m["relay.push_ns_per_batch"] = float64(st.ns[spanPush]) / float64(st.count[spanPush])
	}
	m["tool.dispatch_ns_per_record"] = ratio(float64(st.ns[spanDispatch]), float64(tr.dispRecs))
	if _, leaf := base.layer["ism.hold_back_ratio"]; leaf {
		var transit hist
		tr.join(&transit)
		if v, ok := transit.quantile(0.50); ok {
			m["ism.transit_us_p50"] = v / 1e3
		}
		if v, ok := transit.quantile(0.99); ok {
			m["ism.transit_us_p99"] = v / 1e3
		}
	}
	stages := stageTable(tr.sample)
	sum := 0.0
	for k, v := range stages {
		m[k] = v
		sum += v
	}
	m["stage.unattributed_ns_per_record"] = base.cpuPer - sum

	// Overhead as the share by which tracing worsened each metric.
	m["trace.overhead_records_per_s_pct"] = 100 * ratio(base.rate-traced.rate, base.rate)
	m["trace.overhead_cpu_ns_per_record_pct"] = 100 * ratio(traced.cpuPer-base.cpuPer, base.cpuPer)
	m["trace.overhead_intrusion_ns_per_record_pct"] = 100 * ratio(traced.intrusion-base.intrusion, base.intrusion)
	if base.latOK && traced.latOK {
		m["trace.overhead_capture_to_tool_p90_us_pct"] = 100 * ratio(traced.p90-base.p90, base.p90)
	}
	return m
}

// report prints a human-readable table ahead of the JSON line.
func report(name string, p *phase, defs []metricDef, vals map[string]float64) {
	fmt.Printf("workload %s: captured %d, delivered %d, verified %d, lost_record_ratio %g\n",
		name, p.captured, p.delivered, p.verified, ratio(float64(p.captured-p.verified), float64(p.captured)))
	fmt.Printf("  records/s per %v window:", time.Duration(windowWidth))
	for _, r := range p.windowRates {
		fmt.Printf(" %.0f", r)
	}
	fmt.Println()
	// Printed on every run, but not an end-to-end metric: no percentile
	// held still from run to run on all three workloads (see README).
	if p.latOK {
		fmt.Printf("  capture_to_tool p50 %.1f us, p90 %.1f us, p99 %.1f us\n", p.p50/1e3, p.p90/1e3, p.p99/1e3)
	}
	if p.check != nil {
		fmt.Printf("output check failed: %v\n", p.check)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Printf("  %-44s %14s\n", d.name, "n/a")
			continue
		}
		fmt.Printf("  %-44s %14.4f %s\n", d.name, v, d.unit)
	}
}
