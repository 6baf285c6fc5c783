package main

import "time"

// layerOf names the layer each span times; roots and anything else
// count as the benchmark's own time.
var layerOf = map[string]string{
	"minicc.Compile":        "minicc",
	"vm.Run":                "vm",
	"profile.Run":           "profile",
	"cpu.BuildTrace":        "trace",
	"Trace.MarshalBinary":   "codec",
	"Trace.UnmarshalBinary": "codec",
	"cpu.Simulate":          "sim",
	"store.OpenFS":          "store",
	"store.ReadFile":        "store",
	"store.Sync":            "store",
	"journal.OpenFS":        "journal",
	"journal.ReadFile":      "journal",
	"journal.Sync":          "journal",
	"service.Start":         "service",
	"service.Drain":         "service",
	"Client.Submit":         "service",
	"Client.Events":         "service",
	"Client.Results":        "service",
}

// selfLayers are reported as self_pct.<layer>, in this order.
var selfLayers = []string{"sim", "trace", "vm", "profile", "minicc", "codec", "service", "store", "journal", "bench"}

// agg sums the spans of one name (and tag) in one phase.
type agg struct {
	n      int
	dur    time.Duration
	work   int64
	allocs uint64
	gcs    uint64
	ms     []float64
}

func (a *agg) nsPer() float64     { return ratio(float64(a.dur), float64(a.work)) }
func (a *agg) allocsPer() float64 { return ratio(float64(a.allocs), float64(a.work)) }
func (a *agg) mbPerS() float64    { return ratio(float64(a.work)/1e6, a.dur.Seconds()) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics from the traced run:
// rates from every span, per-round counts and latencies from the traced
// rounds, and write-path counts and fsync latencies from the traced
// set-up. A layer that did no work on the workload reports 0.
func layerMetrics(spans []span, setupPhase, roundPhase phase, rounds int) []metric {
	roots := make(map[int32]string)
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Trace] = s.Name
		}
	}
	all := map[string]*agg{}   // name or name|tag, any phase
	round := map[string]*agg{} // name, traced rounds only
	setup := map[string]*agg{} // name, traced set-up only
	get := func(m map[string]*agg, k string) *agg {
		if m[k] == nil {
			m[k] = &agg{}
		}
		return m[k]
	}
	selfNs := map[string]time.Duration{}
	var roundNs time.Duration
	self := selfTimes(spans)
	for i, s := range spans {
		inRound := roots[s.Trace] != "setup"
		keys := []*agg{get(all, s.Name), get(all, s.Name+"|"+s.Tag)}
		if inRound {
			keys = append(keys, get(round, s.Name))
		} else {
			keys = append(keys, get(setup, s.Name))
		}
		for _, a := range keys {
			a.n++
			a.dur += s.dur()
			a.work += s.Work
			a.allocs += s.Allocs
			a.gcs += s.GCs
			a.ms = append(a.ms, s.dur().Seconds()*1e3)
		}
		if !inRound {
			continue
		}
		if s.Parent == 0 {
			roundNs += s.dur()
		}
		layer := layerOf[s.Name]
		if layer == "" {
			layer = "bench"
		}
		selfNs[layer] += self[i]
	}
	perRound := func(v float64) float64 { return ratio(v, float64(rounds)) }
	counts, setupCounts, obs := roundPhase.counts, setupPhase.counts, roundPhase.obs
	sim, build := get(all, "cpu.Simulate"), get(all, "cpu.BuildTrace")
	enc, dec := get(all, "Trace.MarshalBinary"), get(all, "Trace.UnmarshalBinary")
	ms := []metric{
		{"sim.ns_per_inst", sim.nsPer(), "ns"},
		{"sim.ns_per_inst.2p0", get(all, "cpu.Simulate|(2+0)").nsPer(), "ns"},
		{"sim.ns_per_inst.3p3", get(all, "cpu.Simulate|(3+3)").nsPer(), "ns"},
		{"sim.ns_per_inst.16p0", get(all, "cpu.Simulate|(16+0)").nsPer(), "ns"},
		{"sim.allocs_per_inst", sim.allocsPer(), "count"},
		{"sim.gc_cycles", perRound(float64(get(round, "cpu.Simulate").gcs)), "count"},
		{"sim.call_ms_p50", quantile(sim.ms, 0.5), "ms"},
		{"sim.call_ms_p90", quantile(sim.ms, 0.9), "ms"},
		{"sim.insts", perRound(counts["sim.insts"]), "count"},
		{"sim.cycles", perRound(counts["sim.cycles"]), "count"},
		{"sim.arpt_mispredicts", perRound(counts["sim.arpt_mispredicts"]), "count"},
		{"trace.ns_per_inst", build.nsPer(), "ns"},
		{"trace.allocs_per_inst", build.allocsPer(), "count"},
		{"vm.ns_per_inst", get(all, "vm.Run").nsPer(), "ns"},
		{"profile.ns_per_inst", get(all, "profile.Run").nsPer(), "ns"},
		{"profile.allocs_per_inst", get(all, "profile.Run").allocsPer(), "count"},
		{"minicc.compile_ms", quantile(get(all, "minicc.Compile").ms, 0.5), "ms"},
		{"codec.encode_mb_per_s", enc.mbPerS(), "MB/s"},
		{"codec.decode_mb_per_s", dec.mbPerS(), "MB/s"},
		{"codec.bytes_per_inst", ratio(float64(enc.work), float64(get(round, "cpu.BuildTrace").work)), "B"},
		{"store.hits", perRound(counts["store.hits"]), "count"},
		{"store.writes", setupCounts["store.writes"], "count"},
		{"store.read_ms_p50", quantile(get(round, "store.ReadFile").ms, 0.5), "ms"},
		{"store.read_ms_p99", quantile(get(round, "store.ReadFile").ms, 0.99), "ms"},
		{"store.write_mb", setupCounts["store.write_bytes"] / 1e6, "MB"},
		{"store.fsyncs", float64(get(setup, "store.Sync").n), "count"},
		{"journal.appends", perRound(counts["journal.appends"]), "count"},
		{"journal.fsync_ms_p50", quantile(get(setup, "journal.Sync").ms, 0.5), "ms"},
		{"journal.fsync_ms_p99", quantile(get(setup, "journal.Sync").ms, 0.99), "ms"},
		{"service.units", perRound(counts["service.units"]), "count"},
		{"service.submit_ms", quantile(get(round, "Client.Submit").ms, 0.5), "ms"},
		{"service.queue_wait_ms_p50", quantile(obs["service.queue_wait_ms"], 0.5), "ms"},
		{"service.queue_wait_ms_p99", quantile(obs["service.queue_wait_ms"], 0.99), "ms"},
		{"service.execute_ms_p50", quantile(obs["service.execute_ms"], 0.5), "ms"},
		{"service.execute_ms_p99", quantile(obs["service.execute_ms"], 0.99), "ms"},
	}
	for _, l := range selfLayers {
		ms = append(ms, metric{"self_pct." + l, 100 * ratio(float64(selfNs[l]), float64(roundNs)), "%"})
	}
	return ms
}
