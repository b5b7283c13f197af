package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"text/tabwriter"
)

// metricDef names one metric of the ledger; BENCHMARK.json carries
// the same list (a test keeps the two equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the library sees, measured with tracing
// off and defined on every workload. What an operation is differs by
// workload (workload.opUnit), so the per-workload names the issue
// tracker uses are aliases of these: see aliases.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_MB", "MB", "lower"},
}

// perLayer is everything attributed to one layer: the isolated
// micro-drivers first, then the traced repetition.
var perLayer = []metricDef{
	{"proto.encode_small_ns", "ns", "lower"},
	{"proto.decode_small_ns", "ns", "lower"},
	{"proto.encode_large_ns", "ns", "lower"},
	{"proto.decode_large_ns", "ns", "lower"},
	{"proto.decode_negotiate_ns", "ns", "lower"},
	{"proto.decode_allocs", "count", "lower"},
	{"realudp.send_small_ns", "ns", "lower"},
	{"realudp.send_large_ns", "ns", "lower"},
	{"realudp.recv_small_ns", "ns", "lower"},
	{"realudp.batch_fill", "count", "higher"},
	{"realudp.invoke_ns", "ns", "lower"},
	{"realudp.timer_ns", "ns", "lower"},
	{"rendezvous.relay_small_ns", "ns", "lower"},
	{"rendezvous.relay_large_ns", "ns", "lower"},
	{"rendezvous.register_ns", "ns", "lower"},
	{"rendezvous.connect_request_ns", "ns", "lower"},
	{"rendezvous.negotiate_ns", "ns", "lower"},
	{"rendezvous.relay_allocs", "count", "lower"},
	{"punch.sim_dial_us", "us", "lower"},
	{"punch.sim_dial_allocs", "count", "lower"},
	{"punch.dial_datagrams", "count", "lower"},
	{"engine.bulk_MBps", "MB/s", "higher"},
	{"engine.bulk_allocs_per_MB", "count", "lower"},
	{"engine.dgrams_per_MB", "count", "lower"},
	{"engine.acks_per_MB", "count", "lower"},
	{"engine.rpc_ns", "ns", "lower"},
	{"engine.loss1_rtx_ratio", "ratio", "lower"},
	{"facade.dgram_rtt_us", "us", "lower"},

	{"raw.ops_per_s", "1/s", "higher"},
	{"raw.op_p50_us", "us", "lower"},
	{"raw.op_p99_us", "us", "lower"},
	{"raw.cpu_us_per_op", "us", "lower"},
	{"raw.ref_rt_per_s", "1/s", "higher"},
	{"realudp.sendto_share", "ratio", "lower"},
	{"realudp.residual_cpu_share", "ratio", "lower"},
	{"engine.recv_cb_share", "ratio", "lower"},
	{"engine.invoke_run_share", "ratio", "lower"},
	{"engine.timer_cb_share", "ratio", "lower"},
	{"engine.timers_per_op", "count", "lower"},
	{"rendezvous.handler_share", "ratio", "lower"},
	{"rendezvous.handler_ns_per_dgram", "ns", "lower"},
	{"rendezvous.relayed_msgs", "count", "lower"},
	{"rendezvous.errors", "count", "lower"},
	{"facade.invokes_per_op", "count", "lower"},
	{"facade.invoke_wait_us_p50", "us", "lower"},
	{"wire.dgrams_per_op", "count", "lower"},
	{"wire.acks_per_data_dgram", "ratio", "lower"},
	{"wire.bytes_per_app_byte", "ratio", "lower"},
	{"punch.open_ms_p50", "ms", "lower"},
	{"punch.dial_ms_p50", "ms", "lower"},
	{"punch.first_byte_ms_p50", "ms", "lower"},
	{"punch.connect_p99_ms", "ms", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.gc_pause_share", "ratio", "lower"},
	{"proc.cpu_util", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// refNominal is the speed of the nominal host every time-derived
// metric is normalised to: one on which the reference (refLoop) makes
// 100 000 raw round trips a second, 10 µs each. This box does about
// 120 000 when it is left alone.
const refNominal = 100_000.0

// Why normalise at all: this host is shared, and for tens of seconds
// to minutes at a time something outside the VM makes system calls
// and memory a third slower, then stops. No statistic over one run
// survives that — whole runs land in one state or the other — but the
// reference, read between every two slices of a run, slows down with
// the workload. So each slice is rescaled by what the reference says
// the host was doing at that moment:
//
//	busy  = min(1, cpu seconds / wall seconds)     the share of the slice the process was on a CPU
//	scale = 1 - busy + busy * ref / refNominal     only that share runs at the host's speed
//
// and rate/scale, latency*scale, cpu*ref/refNominal are what the slice
// would have read on the nominal host. Set-up time is rescaled the
// same way by the first reading after it. A workload that mostly waits
// on protocol timers (busy near 0: the lossy transfer, idle in a
// retransmission timeout) is left as measured; one that keeps a core
// busy is fully rescaled. The ledger reports the median slice.
type normalised struct {
	setupS      float64   // set-up, rescaled by the repetition's first reading
	rate, p50us []float64 // per slice, on the nominal host
	cpuUs, ops  float64   // CPU µs on the nominal host and operations, summed over the slices
	ref         []float64 // the reading each slice was rescaled by
}

// rescale is the factor that takes a stretch of wall time in which the
// process was busy for the given share to the nominal host.
func rescale(busy, ref float64) float64 {
	if ref == 0 {
		return 1
	}
	busy = min(1, busy)
	return 1 - busy + busy*ref/refNominal
}

func normalise(r *repResult) normalised {
	var n normalised
	// A slice whose load did not park in time has no reading of its
	// own; the host changes slowly, so it borrows its neighbour's.
	refs := make([]float64, len(r.Slices))
	last := 0.0
	for i, s := range r.Slices {
		if s.RefPerS > 0 {
			last = s.RefPerS
		}
		refs[i] = last
	}
	for i := len(refs) - 1; i >= 0; i-- {
		if refs[i] == 0 {
			refs[i] = last // leading gaps take the first reading; none at all leaves 0
		}
		last = refs[i]
	}
	n.setupS = r.SetupS
	if len(refs) > 0 && r.SetupS > 0 {
		n.setupS *= rescale(r.SetupCPUS/r.SetupS, refs[0])
	}
	for i, s := range r.Slices {
		if s.WallS <= 0 {
			continue
		}
		ref := refs[i]
		if ref == 0 {
			ref = refNominal
		}
		scale := rescale(s.CPUS/s.WallS, ref)
		n.ref = append(n.ref, ref)
		n.rate = append(n.rate, s.Ops/s.WallS/scale)
		n.cpuUs += s.CPUS * 1e6 * ref / refNominal
		n.ops += s.Ops
		if s.P50us > 0 {
			n.p50us = append(n.p50us, s.P50us*scale)
		}
	}
	return n
}

// endToEndOf reduces the untraced repetitions of one workload to the
// end-to-end readings. Throughput and latency are the median over the
// normalised slices of all repetitions; CPU cost is summed over them
// before dividing, because the kernel accounts CPU time in ticks too
// coarse for one slice of a mostly idle workload. Each comes with the
// range of the same statistic taken per repetition. Set-up time is the
// median repetition.
func endToEndOf(reps []repResult) (map[string]reading, dist) {
	var setup, rate, p50, cpu, pooled []float64
	var all normalised
	for i := range reps {
		n := normalise(&reps[i])
		pooled = append(pooled, reps[i].Lat...)
		setup = append(setup, n.setupS)
		rate = append(rate, median(n.rate))
		p50 = append(p50, median(n.p50us))
		cpu = append(cpu, n.cpuUs/n.ops)
		all.rate = append(all.rate, n.rate...)
		all.p50us = append(all.p50us, n.p50us...)
		all.cpuUs += n.cpuUs
		all.ops += n.ops
	}
	// over gives a statistic taken over everything, with the range of
	// the same statistic taken per repetition.
	over := func(unit string, perRep []float64, value float64, n int) reading {
		r := readingOf(unit, perRep)
		r.Value, r.N = value, n
		return r
	}
	return map[string]reading{
		"setup_s":       readingOf("s", setup),
		"ops_per_s":     over("1/s", rate, median(all.rate), len(all.rate)),
		"op_p50_us":     over("us", p50, median(all.p50us), len(all.p50us)),
		"cpu_us_per_op": over("us", cpu, all.cpuUs/all.ops, int(all.ops)),
		"peak_rss_MB":   readingOf("MB", []float64{peakRSSMB()}),
	}, summarize(pooled)
}

// perLayerOf assembles the per-layer metrics of one workload from the
// micro-drivers, one untraced repetition and the traced repetition
// that followed it. Shares are of the process's CPU time inside the
// traced window; time inside a decorated callback is wall time, which
// on a busy two-core box can exceed the CPU time it was given.
func perLayerOf(micro metrics, plain, traced *repResult, tr *tracer) metrics {
	out := metrics{}
	for k, v := range micro {
		out[k] = v
	}
	srv, cli := traced.Seams[roleServer], traced.Seams[roleClient]
	_, ops, cpuS := traced.totals()
	cpuNs := cpuS * 1e9
	n := int(ops)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set := func(name, unit string, v float64, n int) { out[name] = metric{Value: v, Unit: unit, N: n} }

	// The untraced repetition as measured, beside the normalised
	// end-to-end numbers.
	plainWall, plainOps, plainCPU := plain.totals()
	lat := summarize(append([]float64(nil), plain.Lat...))
	set("raw.ops_per_s", "1/s", ratio(plainOps, plainWall), int(plainOps))
	set("raw.op_p50_us", "us", lat.P50, lat.N)
	set("raw.op_p99_us", "us", lat.P99, lat.N)
	set("raw.cpu_us_per_op", "us", ratio(plainCPU*1e6, plainOps), int(plainOps))
	set("raw.ref_rt_per_s", "1/s", median(normalise(plain).ref), len(plain.Slices))

	set("realudp.sendto_share", "ratio", ratio(float64(srv[sendNs]+cli[sendNs]), cpuNs), int(srv[sendN]+cli[sendN]))
	set("realudp.residual_cpu_share", "ratio", 1-ratio(float64(srv.callbackNs()+cli.callbackNs()), cpuNs), n)
	set("engine.recv_cb_share", "ratio", ratio(float64(cli[recvNs]-cli[recvSendNs]), cpuNs), int(cli[recvN]))
	set("engine.invoke_run_share", "ratio", ratio(float64(cli[invokeNs]-cli[invokeSendNs]), cpuNs), int(cli[invokeN]))
	set("engine.timer_cb_share", "ratio", ratio(float64(cli[timerNs]-cli[timerSendNs]), cpuNs), int(cli[timerN]))
	set("engine.timers_per_op", "count", ratio(float64(cli[timerSet]), ops), int(cli[timerSet]))
	set("rendezvous.handler_share", "ratio", ratio(float64(srv[recvNs]-srv[recvSendNs]), cpuNs), int(srv[recvN]))
	// Per datagram over everything any traced server handled in this
	// process, set-up included: on the direct-path workloads the server
	// works only while sessions are being set up.
	all := tr.snapshot()[roleServer]
	set("rendezvous.handler_ns_per_dgram", "ns", ratio(float64(all[recvNs]-all[recvSendNs]), float64(all[recvN])), int(all[recvN]))
	set("rendezvous.relayed_msgs", "count", float64(traced.Relayed), 1)
	set("rendezvous.errors", "count", float64(traced.SrvErrors), 1)
	set("facade.invokes_per_op", "count", ratio(float64(srv[invokeN]+cli[invokeN]), ops), int(srv[invokeN]+cli[invokeN]))
	set("wire.dgrams_per_op", "count", ratio(float64(srv[sendN]+cli[sendN]), ops), int(srv[sendN]+cli[sendN]))
	set("wire.acks_per_data_dgram", "ratio", ratio(float64(cli[ackDgrams]), float64(cli[dataDgrams])), int(cli[dataDgrams]))
	set("wire.bytes_per_app_byte", "ratio", ratio(float64(srv[sendBytes]+cli[sendBytes]), traced.Bytes), int(traced.Bytes))

	tr.mu.Lock()
	waits := summarize(tr.waits)
	set("facade.invoke_wait_us_p50", "us", waits.P50, waits.N)
	for stage, name := range map[string]string{"open": "punch.open_ms_p50", "dial": "punch.dial_ms_p50", "first_byte": "punch.first_byte_ms_p50"} {
		d := summarize(tr.stages[stage])
		set(name, "ms", d.P50, d.N)
	}
	d := summarize(tr.stages["connect"])
	set("punch.connect_p99_ms", "ms", d.P99, d.N)
	tr.mu.Unlock()

	// The process-wide numbers come from the untraced repetition, so
	// the decorator's own closures and clock reads are not in them.
	set("proc.allocs_per_op", "count", ratio(float64(plain.Mallocs), plainOps), int(plainOps))
	set("proc.gc_pause_share", "ratio", ratio(float64(plain.GCPauseNs), plainWall*1e9), int(plainOps))
	set("proc.cpu_util", "ratio", ratio(plainCPU, plainWall*float64(runtime.NumCPU())), int(plainOps))
	set("trace.overhead_ratio", "ratio", ratio(median(normalise(traced).rate), median(normalise(plain).rate)), 2)
	return out
}

// aliases gives a workload's end-to-end readings the names the issue
// tracker and README use for them; nil marks a metric the workload
// does not define.
func aliases(w string, e map[string]reading, lat dist, bytesPerOp float64, attempted, failed int64) map[string]*reading {
	scaled := func(r reading, unit string, k float64) *reading {
		r.Unit = unit
		r.Value, r.Min, r.Max = r.Value*k, r.Min*k, r.Max*k
		return &r
	}
	same := func(name string) *reading { r := e[name]; return &r }
	out := map[string]*reading{
		"setup_s": same("setup_s"), "cpu_us_per_op": same("cpu_us_per_op"), "peak_rss_MB": same("peak_rss_MB"),
		"delivered_pps": nil, "goodput_MBps": nil, "rpc_per_s": nil, "rpc_p50_us": nil, "rpc_p99_us": nil,
		"connects_per_s": nil, "connect_p50_ms": nil,
	}
	fr := 0.0
	if attempted > 0 {
		fr = float64(failed) / float64(attempted)
	}
	out["fail_ratio"] = &reading{Value: fr, Min: fr, Max: fr, Unit: "ratio", N: int(attempted)}
	switch {
	case w == "relay_small":
		out["delivered_pps"] = scaled(e["ops_per_s"], "1/s", 1)
	case strings.HasPrefix(w, "stream_bulk_"):
		out["goodput_MBps"] = scaled(e["ops_per_s"], "MB/s", bytesPerOp/1e6)
	case w == "stream_rpc":
		out["rpc_per_s"] = scaled(e["ops_per_s"], "1/s", 1)
		out["rpc_p50_us"] = same("op_p50_us")
		out["rpc_p99_us"] = &reading{Value: lat.P99, Min: lat.P99, Max: lat.P99, Unit: "us", N: lat.N}
	case strings.HasPrefix(w, "connect_churn"):
		out["connects_per_s"] = scaled(e["ops_per_s"], "1/s", 1)
		out["connect_p50_ms"] = scaled(e["op_p50_us"], "ms", 1e-3)
	}
	return out
}

// printTable writes name, value, unit and sample count, one metric a
// line, in the ledger's order.
func printTable(w io.Writer, title string, defs []metricDef, get func(name string) (value float64, unit string, n int, ok bool)) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, d := range defs {
		if v, unit, n, ok := get(d.name); ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t %s\tn=%d\t\n", d.name, v, unit, n)
		}
	}
	tw.Flush()
}
