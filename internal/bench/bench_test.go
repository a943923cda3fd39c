package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"xsim"
)

// TestMain lets the test binary serve as its own re-exec'd child, the
// way cmd/xsim-bench does through Main.
func TestMain(m *testing.M) {
	if isChild() {
		os.Exit(childMain(os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func quickOptions(t *testing.T) options {
	t.Helper()
	return options{Seed: DefaultSeed, Quick: true, Scratch: t.TempDir(), Stderr: os.Stderr}
}

// --- schema ------------------------------------------------------------------

func validManifest() *Manifest { return buildManifest(DefaultSeconds) }

func TestManifestMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := validManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./cmd/xsim-bench -manifest`")
	}
	if len(got.Workloads) != 5 || len(got.PerLayer) < 60 {
		t.Errorf("manifest has %d workloads and %d per-layer metrics, want 5 and at least 60", len(got.Workloads), len(got.PerLayer))
	}
}

func TestDecodeManifestRejects(t *testing.T) {
	encode := func(edit func(*Manifest)) []byte {
		m := validManifest()
		edit(m)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	valid := encode(func(*Manifest) {})
	if _, err := DecodeManifest(valid); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		data []byte
		want string // substring of the error
	}{
		"malformed JSON":               {[]byte(`{"command": invalid`), "invalid character"},
		"unknown field":                {bytes.Replace(valid, []byte(`"paths"`), []byte(`"schema_version":1,"paths"`), 1), "unknown field"},
		"trailing data":                {append(append([]byte{}, valid...), []byte(`{}`)...), "trailing data"},
		"duplicate metric":             {encode(func(m *Manifest) { m.PerLayer = append(m.PerLayer, m.PerLayer[0]) }), "used twice"},
		"metric named like a workload": {encode(func(m *Manifest) { m.PerLayer[0].Name = m.Workloads[0].Name }), "used twice"},
		"illegal name":                 {encode(func(m *Manifest) { m.PerLayer[0].Name = "core/dispatch ns" }), "must start with a letter or digit"},
		"illegal unit":                 {encode(func(m *Manifest) { m.PerLayer[0].Unit = "ns per event" }), "illegal unit"},
		"illegal better":               {encode(func(m *Manifest) { m.EndToEnd[0].Better = "smaller" }), "better must be"},
		"bound too wide":               {encode(func(m *Manifest) { m.EndToEnd[0].Bound = 0.3 }), "bound must be"},
		"no setup_s":                   {encode(func(m *Manifest) { m.EndToEnd[1].Name = "startup_s" }), "needs setup_s"},
		"absolute path":                {encode(func(m *Manifest) { m.Paths[0] = "/root/repo/internal/bench" }), "relative path"},
		"one workload":                 {encode(func(m *Manifest) { m.Workloads = m.Workloads[:1] }), "want 2 to 8"},
		"run_seconds":                  {encode(func(m *Manifest) { m.RunSeconds = 61 }), "run_seconds"},
		"two-line why":                 {encode(func(m *Manifest) { m.Workloads[0].Why = "one\ntwo" }), "one line"},
		"129 layer metrics": {encode(func(m *Manifest) {
			for len(m.PerLayer) < 129 {
				m.PerLayer = append(m.PerLayer, ManifestMetric{Name: "x" + strings.Repeat("y", len(m.PerLayer)%60) + string(rune('a'+len(m.PerLayer)%26)), Unit: "ns", Better: "lower"})
			}
		}), "want 1 to 128"},
	} {
		_, err := DecodeManifest(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func validRunFile() *RunFile {
	return &RunFile{
		SchemaVersion: SchemaVersion,
		Environment: Environment{GOOS: "linux", GOARCH: "amd64", CPU: "test", NProc: 2, GOMAXPROCS: 2,
			GoVersion: "go1.24.0", Commit: "unknown"},
		Seed:    DefaultSeed,
		Seconds: 15,
		Workloads: []WorkloadResult{{
			Name: "halo-64k-prog-w2", Attempted: 3, SimDigest: "ab",
			EndToEnd: map[string]Sample{"wall_s": {Value: 3, Unit: "s", Values: []float64{3, 3.1}}},
			PerLayer: map[string]Sample{"core.par_speedup_w2": {Value: 1.1, Unit: "ratio"}},
		}},
	}
}

func TestDecodeRunFileRejects(t *testing.T) {
	encode := func(edit func(*RunFile)) []byte {
		rf := validRunFile()
		edit(rf)
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	valid := encode(func(*RunFile) {})
	if _, err := DecodeRunFile(valid); err != nil {
		t.Fatalf("valid run file rejected: %v", err)
	}
	single := func(rf *RunFile) { rf.Environment.GOMAXPROCS = 1 }
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"malformed JSON":                     {[]byte(`{"schema_version": 1,`), "unexpected EOF"},
		"unknown field":                      {bytes.Replace(valid, []byte(`"seed"`), []byte(`"gomaxprocs":1,"seed"`), 1), "unknown field"},
		"future version":                     {encode(func(rf *RunFile) { rf.SchemaVersion = 2 }), "schema_version 2"},
		"no go version":                      {encode(func(rf *RunFile) { rf.Environment.GoVersion = "" }), "go_version is empty"},
		"odd go version":                     {encode(func(rf *RunFile) { rf.Environment.GoVersion = "1.24" }), "does not look like"},
		"no processors":                      {encode(func(rf *RunFile) { rf.Environment.NProc = 0 }), "nproc"},
		"parallel workload on one processor": {encode(single), "gomaxprocs 1"},
		"parallel metric on one processor": {encode(func(rf *RunFile) {
			single(rf)
			rf.Workloads[0].Name = "halo-16k-closure"
		}), "gomaxprocs 1"},
		"illegal metric name": {encode(func(rf *RunFile) {
			rf.Workloads[0].EndToEnd["wall s"] = Sample{Value: 1, Unit: "s"}
		}), "illegal metric name"},
		"illegal unit": {encode(func(rf *RunFile) {
			rf.Workloads[0].EndToEnd["wall_s"] = Sample{Value: 1, Unit: "seconds of wall time"}
		}), "illegal unit"},
		"duplicate workload":         {encode(func(rf *RunFile) { rf.Workloads = append(rf.Workloads, rf.Workloads[0]) }), "used twice"},
		"no digest":                  {encode(func(rf *RunFile) { rf.Workloads[0].SimDigest = "" }), "sim_digest"},
		"more failed than attempted": {encode(func(rf *RunFile) { rf.Workloads[0].Failed = 4 }), "out of range"},
	} {
		_, err := DecodeRunFile(tc.data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	// The same parallel metric is fine once a second processor is recorded.
	if _, err := DecodeRunFile(encode(func(rf *RunFile) { rf.Workloads[0].Name = "halo-16k-closure" })); err != nil {
		t.Errorf("parallel metric at gomaxprocs 2 rejected: %v", err)
	}
}

func TestCurrentEnvironmentIsValid(t *testing.T) {
	env := currentEnvironment()
	if err := env.Validate(); err != nil {
		t.Errorf("currentEnvironment() = %+v: %v", env, err)
	}
}

func TestGoldenFile(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []string{"full", "quick"} {
		for _, w := range workloads {
			entry, ok := g[scale][w.Name]
			if !ok {
				t.Errorf("no %s golden for %s", scale, w.Name)
				continue
			}
			var outcome any
			if err := json.Unmarshal(entry.Outcome, &outcome); err != nil {
				t.Errorf("%s %s: %v", scale, w.Name, err)
			}
			// The digest is over the outcome's compact encoding.
			var compact bytes.Buffer
			if err := json.Compact(&compact, entry.Outcome); err != nil {
				t.Fatal(err)
			}
			if digest, _, _ := digestOf(json.RawMessage(compact.Bytes())); digest != entry.Digest {
				t.Errorf("%s %s: digest %.12s does not match its outcome (%.12s)", scale, w.Name, entry.Digest, digest)
			}
		}
	}
}

// --- statistics ----------------------------------------------------------------

func TestTopPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {48, 50}, {99, 50},
		{100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {4000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := topPercentile(tc.n); got != tc.want {
			t.Errorf("topPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 4000 … 1
	}
	r := summarizeLatency(xs)
	if r.N != 4000 || r.P50 != 2000 || r.TopP != 99 || r.Top != 3960 {
		t.Errorf("summarizeLatency = %+v, want n=4000 p50=2000 p99=3960", r)
	}
	if r := summarizeLatency(xs[:48]); r.N != 48 || r.TopP != 50 || r.Top != r.P50 {
		t.Errorf("48 samples: %+v, want the median as the top percentile", r)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v and median %v, want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	// statistics.quantiles([1.0, 2.0, 4.0], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three values = %v, %v, want 1, 4", q1, q3)
	}
	if got := spreadShare([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spreadShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spreadShare([]float64{3}); got != 0 {
		t.Errorf("spreadShare of one value = %v, want 0", got)
	}
}

// --- spans ---------------------------------------------------------------------

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 0, Parent: -1, Name: "parent", Start: ms(0), End: ms(10)},
		{ID: 1, Parent: 0, Name: "child", Start: ms(1), End: ms(4)},
		{ID: 2, Parent: 0, Name: "child", Start: ms(3), End: ms(6)},  // overlaps span 1
		{ID: 3, Parent: 0, Name: "child", Start: ms(8), End: ms(12)}, // runs past its parent
		{ID: 4, Parent: 1, Name: "leaf", Start: ms(2), End: ms(3)},
	}
	self := selfTimes(spans)
	// The children cover [1,6] and [8,10] of the parent: 7 of 10 ms.
	for i, want := range []time.Duration{ms(3), ms(2), ms(3), ms(4), ms(1)} {
		if self[i] != want {
			t.Errorf("self time of span %d = %v, want %v", i, self[i], want)
		}
	}
	sums := summarizeSpans(spans)
	if sums[0].Name != "child" || sums[0].Count != 3 || math.Abs(sums[0].SelfS-0.009) > 1e-12 || math.Abs(sums[0].TotalS-0.010) > 1e-12 {
		t.Errorf("summary[0] = %+v, want 3 child spans with 9 ms self of 10 ms total", sums[0])
	}
}

func TestTracer(t *testing.T) {
	var off *Tracer
	if id := off.Start("x", -1); id != -1 {
		t.Errorf("nil tracer Start = %d, want -1", id)
	}
	off.End(-1)
	off.Add("x", -1, time.Second)
	if off.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}

	tr := newTracer("wl")
	root := tr.Start("root", -1)
	tr.Add("task", root, time.Millisecond)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].End-spans[1].Start != time.Millisecond || spans[0].Workload != "wl" {
		t.Fatalf("spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].Dur != 1000 {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

// --- inputs --------------------------------------------------------------------

func TestSeedDeterminesInputs(t *testing.T) {
	encode := func(seed int64) []byte {
		var doc []any
		for _, s := range serviceSpecs(seed, false) {
			doc = append(doc, s)
		}
		for _, quick := range []bool{false, true} {
			in := inputs{Seed: seed, Quick: quick}
			t2, _ := newTable2(in)
			ck, _ := newCkpt(in)
			halo, _ := newHalo(in, false)
			doc = append(doc, t2.(*table2Instance).cfg.RunSpec.Seed, t2.(*table2Instance).cfg.CallOverhead,
				ck.(*ckptInstance).camp.Base.Failures, halo.(*haloInstance).simCfg.CallOverhead)
		}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(encode(7), encode(7)) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(encode(7), encode(8)) {
		t.Error("different seeds generated the same inputs")
	}
	if specs := serviceSpecs(7, false); len(specs) != 48 {
		t.Errorf("%d distinct specs, want 48", len(specs))
	}
	keys := make(map[string]bool)
	for _, s := range serviceSpecs(7, false) {
		key, err := s.CacheKey()
		if err != nil {
			t.Fatalf("generated spec is invalid: %v", err)
		}
		if s.Ranks != 0 && (s.Ranks < 48 || s.Ranks > 512) {
			t.Errorf("%s spec at %d ranks, want 48 to 512", s.Kind, s.Ranks)
		}
		keys[key] = true
	}
	if len(keys) != 48 {
		t.Errorf("%d distinct cache keys among 48 specs", len(keys))
	}
}

func TestTable2SeedKeepsThePattern(t *testing.T) {
	if got := table2Seed(DefaultSeed, 32768); got != DefaultSeed {
		t.Errorf("table2Seed(%d) = %d: the paper's seed must stand for itself", DefaultSeed, got)
	}
	distinct := make(map[int64]bool)
	for seed := int64(1); seed <= 20; seed++ {
		got := table2Seed(seed, 32768)
		if !followsPattern(got, 32768) {
			t.Errorf("table2Seed(%d) = %d does not follow the failure pattern", seed, got)
		}
		distinct[got] = true
	}
	if len(distinct) < 20 {
		t.Errorf("20 seeds map to %d campaign seeds", len(distinct))
	}
}

func TestRespellKeepsTheCacheKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range serviceSpecs(DefaultSeed, true) {
		want, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := json.Marshal(s)
		differed := false
		for i := 0; i < 8; i++ {
			body, err := respell(s, rng)
			if err != nil {
				t.Fatal(err)
			}
			differed = differed || !bytes.Equal(body, plain)
			var got string
			decoded, err := xsim.DecodeCampaignSpec(body)
			if err == nil {
				got, err = decoded.CacheKey()
			}
			if err != nil {
				t.Fatalf("respelled %s spec does not decode: %v\n%s", s.Kind, err, body)
			}
			if got != want {
				t.Errorf("respelled %s spec has cache key %.12s, want %.12s", s.Kind, got, want)
			}
		}
		if !differed {
			t.Errorf("%s spec was never respelled", s.Kind)
		}
	}
}

// --- comparison ------------------------------------------------------------------

func TestJudge(t *testing.T) {
	wall := metricByName["wall_s"]
	steady := func(v float64) Sample {
		return Sample{Value: v, Unit: "s", Values: []float64{v * 0.99, v, v * 1.01, v}}
	}
	noisy := func(v float64) Sample {
		return Sample{Value: v, Unit: "s", Values: []float64{v * 0.7, v * 0.9, v * 1.1, v * 1.3}}
	}
	for name, tc := range map[string]struct {
		def       MetricDef
		base, new Sample
		want      string
	}{
		"unchanged":           {wall, steady(10), steady(10.5), verdictWithin},
		"slower":              {wall, steady(10), steady(13), verdictWorse},
		"faster":              {wall, steady(10), steady(7), verdictBetter},
		"noisy and slower":    {wall, noisy(10), steady(13), verdictUnresolved},
		"noisy but all ahead": {wall, noisy(10), steady(5), verdictBetter},
		"higher is better":    {metricByName["hits_per_s"], steady(9000), steady(7000), verdictWorse},
		"setup under floor":   {metricByName["setup_s"], steady(0.10), steady(0.15), verdictWithin},
		"setup over floor":    {metricByName["setup_s"], steady(1.0), steady(1.5), verdictWorse},
		"exact equal":         {metricByName["core.events_dispatched"], Sample{Value: 5}, Sample{Value: 5}, verdictWithin},
		"exact moved":         {metricByName["core.events_dispatched"], Sample{Value: 5}, Sample{Value: 4}, verdictWorse},
		"failures appeared":   {metricByName["failed_share"], Sample{Value: 0}, Sample{Value: 0.01}, verdictWorse},
		"unbounded":           {metricByName["core.step_ns"], steady(50), steady(500), verdictInfo},
	} {
		if got := judge(tc.def, tc.base, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", name, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := validRunFile()
	same := validRunFile()
	var out bytes.Buffer
	if !Compare(base, same, &out) {
		t.Errorf("a run file does not pass against itself:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1.000× of 3 s") || !strings.Contains(out.String(), "25%") {
		t.Errorf("row lacks the ratio with its base or the bound:\n%s", out.String())
	}
	slower := validRunFile()
	slower.Workloads[0].EndToEnd["wall_s"] = Sample{Value: 4, Unit: "s", Values: []float64{4, 4.1}}
	out.Reset()
	if Compare(base, slower, &out) || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 33%% slower run passes:\n%s", out.String())
	}
	changed := validRunFile()
	changed.Workloads[0].SimDigest = "cd"
	out.Reset()
	if Compare(base, changed, &out) || !strings.Contains(out.String(), "sim_digest changed") {
		t.Errorf("a changed sim_digest passes:\n%s", out.String())
	}
}

// --- the harness itself ----------------------------------------------------------

func TestChildReportsRusage(t *testing.T) {
	opt := quickOptions(t)
	r, err := runChild(childJob{Mode: "workload", Workload: "halo-16k-closure", Inputs: opt.inputs()}, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakRSSMiB < 1 || r.SetupS <= 0 || r.WallS <= 0 || r.CPUS <= 0 {
		t.Errorf("child report %+v lacks rusage or timings", r)
	}
	if r.Failed != 0 || r.Digest == "" || r.Counts.Events == 0 {
		t.Errorf("child report %+v: want a checked outcome with events", r)
	}
	if _, err := runChild(childJob{Mode: "workload", Workload: "no-such-workload"}, io.Discard); err == nil {
		t.Error("a child given an unknown workload exited 0")
	}
}

// TestQuickSmoke runs every workload once at the quick scale, tracing
// off, and checks its outputs against the seed-133 goldens.
func TestQuickSmoke(t *testing.T) {
	opt := quickOptions(t)
	for _, w := range workloads {
		if w.Parallel && runtime.GOMAXPROCS(0) < 2 {
			t.Logf("skipping %s on one processor", w.Name)
			continue
		}
		res, err := measureEndToEnd(w, opt) // Seconds 0: a single repetition
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
		}
		for _, d := range endToEndMetrics {
			if s, ok := res.EndToEnd[d.Name]; !ok || s.Value <= 0 || s.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.Name, d.Name, s, d.Unit)
			}
		}
		if w.Name == "service-mix" {
			for _, name := range []string{"cold_campaigns_per_s", "cold_p50_ms", "hit_p50_ms", "hit_p99_ms", "hits_per_s"} {
				if res.EndToEnd[name].Value <= 0 {
					t.Errorf("service-mix: %s = %v", name, res.EndToEnd[name].Value)
				}
			}
		} else if res.EndToEnd["sim_events_per_s"].Value <= 0 {
			t.Errorf("%s: no sim_events_per_s", w.Name)
		}
	}
}

// TestQuickTracedPass runs the layer drivers and one traced workload at
// the quick scale and checks that every declared per-layer metric comes
// out, in the driver's one-line form too.
func TestQuickTracedPass(t *testing.T) {
	opt := quickOptions(t)
	opt.Trace = true
	layers, err := measureLayers(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, spans, err := measureTraced(workloads[0], opt, layers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, d := range perLayerMetrics() {
		s, ok := res.PerLayer[d.Name]
		if d.Parallel && runtime.GOMAXPROCS(0) < 2 {
			if ok {
				t.Errorf("%s emitted on one processor", d.Name)
			}
			continue
		}
		if !ok || s.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v, want unit %s", d.Name, s, d.Unit)
		}
	}
	for _, name := range []string{"core.dispatch_ns_per_event", "mpi.pingpong_eager_ns", "checkpoint.write_us",
		"jobstore.dir_get_us", "service.submit_hit_us", "core.events_dispatched", "runner.pool_efficiency", "bench.attributed_share"} {
		if res.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, res.PerLayer[name].Value)
		}
	}
	if len(spans) < 5 {
		t.Errorf("traced Table II recorded %d spans, want the run and its pool tasks", len(spans))
	}
	var line bytes.Buffer
	if err := printDriverLine(&line, *res, true); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := decodeStrict(line.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Attempted < 1 || runtime.GOMAXPROCS(0) >= 2 && len(doc.Metrics) != len(perLayerMetrics()) {
		t.Errorf("driver line: correct=%v attempted=%d with %d metrics, want %d", doc.Correct, doc.Attempted, len(doc.Metrics), len(perLayerMetrics()))
	}
}

// TestOneProcessorRefusesParallelMetrics checks that a harness confined
// to one processor measures no parallel-engine workload.
func TestOneProcessorRefusesParallelMetrics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, _ := workloadByName("halo-64k-prog-w2")
	var stderr bytes.Buffer
	opt := quickOptions(t)
	opt.Seconds, opt.Stderr = 1, &stderr
	rf, _, err := runSet([]workload{w}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Workloads) != 0 || rf.Environment.GOMAXPROCS != 1 || !strings.Contains(stderr.String(), "skipping halo-64k-prog-w2") {
		t.Errorf("measured %d workloads at GOMAXPROCS %d; stderr %q", len(rf.Workloads), rf.Environment.GOMAXPROCS, stderr.String())
	}
}

func TestMainRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-compare", "only-one.json"},
		{"-no-such-flag"},
		{"stray"},
	} {
		if code := Main(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("xsim-bench %v exited 0", args)
		}
	}
	var out bytes.Buffer
	if code := Main([]string{"-manifest"}, &out, io.Discard); code != 0 {
		t.Fatalf("-manifest exited %d", code)
	}
	if _, err := DecodeManifest(out.Bytes()); err != nil {
		t.Errorf("-manifest printed an invalid manifest: %v", err)
	}
}
