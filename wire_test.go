package xsim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"xsim/internal/runner"
)

// TestCampaignSpecRoundTripQuick is the wire contract's core property:
// decoding a spec's own encoding reproduces it exactly, for randomly
// generated specs of any shape (valid or not — round-trip is a purely
// syntactic promise).
func TestCampaignSpecRoundTripQuick(t *testing.T) {
	f := func(s CampaignSpec) bool {
		data, err := json.Marshal(&s)
		if err != nil {
			return false
		}
		got, err := DecodeCampaignSpec(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return reflect.DeepEqual(&s, got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOutcomeRoundTripQuick extends the syntactic round-trip promise to
// the result side of the wire.
func TestOutcomeRoundTripQuick(t *testing.T) {
	f := func(o CampaignOutcome) bool {
		data, err := json.Marshal(&o)
		if err != nil {
			return false
		}
		var got CampaignOutcome
		if err := json.Unmarshal(data, &got); err != nil {
			return false
		}
		return reflect.DeepEqual(&o, &got)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeCampaignSpec([]byte(`{"version":1,"kind":"table1","bogus":3}`))
	var se *SpecError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SpecError", err)
	}
	if se.Field != "bogus" || se.Msg != "unknown field" {
		t.Fatalf("SpecError = %+v", se)
	}
}

func TestDecodeRejectsMalformedDocuments(t *testing.T) {
	for _, doc := range []string{
		``, `{`, `[1,2]`, `{"version":"one","kind":"table1"}`,
		`{"version":1,"kind":"table1"} trailing`,
	} {
		if _, err := DecodeCampaignSpec([]byte(doc)); !IsSpecError(err) {
			t.Errorf("DecodeCampaignSpec(%q) err = %v, want *SpecError", doc, err)
		}
	}
	// Type mismatches name the offending field.
	_, err := DecodeCampaignSpec([]byte(`{"version":1,"kind":"table2","table2":{"iterations":"many"}}`))
	var se *SpecError
	if !errors.As(err, &se) || !strings.Contains(se.Field, "iterations") {
		t.Fatalf("err = %v, want *SpecError naming iterations", err)
	}
}

func TestValidateCatalogsViolations(t *testing.T) {
	spec := &CampaignSpec{
		Version: 99,
		Kind:    "nonsense",
		Ranks:   -1,
		TableII: &TableIIParams{},
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("Validate accepted a broken spec")
	}
	for _, field := range []string{"version", "kind", "ranks", "table2"} {
		if !strings.Contains(err.Error(), fmt.Sprintf("field %q", field)) {
			t.Errorf("error does not mention field %q: %v", field, err)
		}
	}
}

func TestValidateKindSpecificRanges(t *testing.T) {
	cases := []struct {
		name  string
		spec  CampaignSpec
		field string
	}{
		{"negative victims", CampaignSpec{Version: 1, Kind: KindTableI,
			TableI: &TableIParams{Victims: -1}}, "table1.victims"},
		{"zero interval", CampaignSpec{Version: 1, Kind: KindTableII,
			TableII: &TableIIParams{Intervals: []int{0}}}, "table2.intervals[0]"},
		{"negative mttf", CampaignSpec{Version: 1, Kind: KindTableII,
			TableII: &TableIIParams{MTTFSeconds: []float64{-5}}}, "table2.mttf_seconds[0]"},
		{"degree one", CampaignSpec{Version: 1, Kind: KindCrossover,
			Crossover: &CrossoverParams{Degrees: []int{1}}}, "replication_crossover.degrees[0]"},
		{"indivisible degree", CampaignSpec{Version: 1, Kind: KindCrossover, Ranks: 10,
			Crossover: &CrossoverParams{Degrees: []int{3}}}, "replication_crossover.degrees[0]"},
		{"delta out of range", CampaignSpec{Version: 1, Kind: KindIOAblation,
			IOAblation: &IOAblationParams{DeltaFraction: 1.5}}, "io_ablation.delta_fraction"},
		{"delta of the whole payload", CampaignSpec{Version: 1, Kind: KindIOAblation,
			IOAblation: &IOAblationParams{DeltaFraction: 1}}, "io_ablation.delta_fraction"},
		{"compute past the clock", CampaignSpec{Version: 1, Kind: KindCrossover, Ranks: 4,
			Crossover: &CrossoverParams{Degrees: []int{2}, MTTFSeconds: []float64{1e9}, Iterations: 10000,
				ComputeSeconds: 1e6, MaxRuns: 2}}, "replication_crossover.compute_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("field %q", tc.field)) {
				t.Fatalf("err = %v, want violation on %q", err, tc.field)
			}
		})
	}
}

// TestValidateRefusesClockOverrun: a heat kind whose iteration count times
// the paper's per-iteration compute overruns the virtual clock is refused
// at Validate (and so never reaches the queue or the result cache), since a
// compute phase costs the host nothing per iteration and the run would
// otherwise return at once with a wrapped clock.
func TestValidateRefusesClockOverrun(t *testing.T) {
	for _, kind := range []CampaignKind{KindTableII, KindIntervalSweep, KindFirstImpressions, KindIOAblation} {
		block := kindRow(kind).block
		decode := func(iterations int) *CampaignSpec {
			doc := fmt.Sprintf(`{"version":1,"kind":%q,"ranks":8,%q:{"iterations":%d}}`, kind, block, iterations)
			spec, err := DecodeCampaignSpec([]byte(doc))
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			return spec
		}
		spec := decode(1 << 40)
		err := spec.Validate()
		var se *SpecError
		if !errors.As(err, &se) || se.Field != block+".iterations" || !strings.Contains(se.Msg, "overrun the virtual clock") {
			t.Errorf("%s: Validate = %v, want a *SpecError on %s.iterations naming the clock overrun", kind, err, block)
		}
		if _, err := spec.CacheKey(); !IsSpecError(err) {
			t.Errorf("%s: CacheKey = %v, want the spec refused before it is addressable", kind, err)
		}
		// A million iterations (two simulated months) is well inside the range.
		if _, err := decode(1_000_000).CacheKey(); err != nil {
			t.Errorf("%s: a million iterations refused: %v", kind, err)
		}
	}
}

// TestCrossoverLargestComputeRuns runs the largest compute_seconds
// Validate accepts for a 10-iteration crossover: the measured solve must be
// the iterations' compute plus a little communication, where a spec past
// the clock's range used to print a solve the virtual clock had wrapped.
func TestCrossoverLargestComputeRuns(t *testing.T) {
	const iterations = 10
	spec := func(computeNS int64) *CampaignSpec {
		return &CampaignSpec{Version: SpecVersion, Kind: KindCrossover, Ranks: 4, Seed: 1,
			Crossover: &CrossoverParams{Degrees: []int{2}, MTTFSeconds: []float64{9e9}, Iterations: iterations,
				ComputeSeconds: Duration(computeNS).Seconds()}}
	}
	// Bisect whole nanoseconds: lo is accepted, hi refused.
	lo, hi := int64(Second), int64(math.MaxInt64)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; spec(mid).Validate() == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	out, err := spec(lo).RunWith(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("compute %v s: %v", Duration(lo).Seconds(), err)
	}
	compute := iterations * lo
	if solve := out.Crossover.SolveNS; solve < compute || solve-compute > iterations*int64(Second) {
		t.Errorf("solve %d ns, want %d ns of compute plus under a second per iteration", solve, compute)
	}
}

// TestCanonicalIsByteStable pins the cache-key foundation: documents that
// differ only in field order, whitespace, or reliance on defaults
// canonicalise to identical bytes.
func TestCanonicalIsByteStable(t *testing.T) {
	docs := []string{
		`{"version":1,"kind":"table2","seed":7}`,
		`{"seed":7,"kind":"table2","version":1}`,
		"{\n  \"kind\": \"table2\",\n  \"version\": 1,\n  \"seed\": 7\n}",
		// Defaults spelled out explicitly must land on the same bytes as
		// defaults left implicit.
		`{"version":1,"kind":"table2","seed":7,"ranks":32768,
		  "table2":{"iterations":1000,"intervals":[500,250,125],
		            "mttf_seconds":[6000,3000],"max_runs":0,"paper_io":false}}`,
	}
	var want []byte
	for i, doc := range docs {
		spec, err := DecodeCampaignSpec([]byte(doc))
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		got, err := spec.Canonical()
		if err != nil {
			t.Fatalf("doc %d: Canonical: %v", i, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("doc %d canonicalises differently:\n got %s\nwant %s", i, got, want)
		}
	}
	// Repeated canonicalisation of the same spec is byte-stable.
	spec, _ := DecodeCampaignSpec([]byte(docs[0]))
	a, _ := spec.Canonical()
	b, _ := spec.Canonical()
	if !bytes.Equal(a, b) {
		t.Fatal("Canonical is not deterministic across calls")
	}
}

// TestCanonicalDoesNotMutate pins that Canonical normalizes a copy: the
// receiver keeps its sparse, as-submitted shape.
func TestCanonicalDoesNotMutate(t *testing.T) {
	spec := &CampaignSpec{Version: 1, Kind: KindTableII, Seed: 7, Workers: 3, Pool: 2}
	if _, err := spec.Canonical(); err != nil {
		t.Fatal(err)
	}
	if spec.TableII != nil || spec.Ranks != 0 || spec.Workers != 3 || spec.Pool != 2 {
		t.Fatalf("Canonical mutated the receiver: %+v", spec)
	}
}

// TestCacheKeyIgnoresExecutionKnobs pins the cache-key semantics:
// workers and pool cannot change results (the repo's determinism
// invariant), so they must not change the key; everything semantic must.
func TestCacheKeyIgnoresExecutionKnobs(t *testing.T) {
	base := CampaignSpec{Version: 1, Kind: KindTableII, Seed: 7}
	key := func(s CampaignSpec) string {
		t.Helper()
		k, err := s.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base)

	knobs := base
	knobs.Workers = 8
	knobs.Pool = 4
	if key(knobs) != k0 {
		t.Error("Workers/Pool changed the cache key")
	}

	seeded := base
	seeded.Seed = 8
	if key(seeded) == k0 {
		t.Error("Seed did not change the cache key")
	}

	scaled := base
	scaled.Ranks = 64
	if key(scaled) == k0 {
		t.Error("Ranks did not change the cache key")
	}

	kinded := base
	kinded.Kind = KindIntervalSweep
	if key(kinded) == k0 {
		t.Error("Kind did not change the cache key")
	}
}

// TestSpecRunMatchesDriver pins end-to-end transport equivalence at the
// source: executing a wire spec must agree with calling the experiment
// driver directly on the equivalent config, and repeated executions must
// produce byte-identical canonical outcomes.
func TestSpecRunMatchesDriver(t *testing.T) {
	spec := &CampaignSpec{
		Version: 1,
		Kind:    KindTableI,
		Seed:    2013,
		TableI:  &TableIParams{Victims: 10, MaxInjections: 50},
	}
	out, err := spec.RunWith(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	directOut, _, err := runBlock(context.Background(), RunSpec{Seed: 2013}, &TableIParams{Victims: 10, MaxInjections: 50})
	if err != nil {
		t.Fatal(err)
	}
	direct := directOut.TableI
	if out.TableI == nil {
		t.Fatal("outcome has no table1 block")
	}
	if out.TableI.Injections != direct.Injections ||
		!reflect.DeepEqual(out.TableI.ToFailure, direct.ToFailure) ||
		!reflect.DeepEqual(out.TableI.KillsByRegion, direct.KillsByRegion) {
		t.Fatalf("wire outcome diverges from direct driver:\nwire   %+v\ndirect %+v",
			out.TableI, direct)
	}

	again, err := spec.RunWith(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := out.Canonical()
	b, _ := again.Canonical()
	if !bytes.Equal(a, b) {
		t.Fatal("repeated runs canonicalise differently")
	}
}

// TestSpecRunTableII does the same for a simulated-campaign kind, at the
// fast 64-rank scale the existing Table II tests use.
func TestSpecRunTableII(t *testing.T) {
	spec := &CampaignSpec{
		Version: 1,
		Kind:    KindTableII,
		Ranks:   64,
		Seed:    133,
		TableII: &TableIIParams{Iterations: 200, Intervals: []int{100, 50}, MTTFSeconds: []float64{1000}},
	}
	out, err := spec.RunWith(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunTableIIContext(context.Background(), TableIIConfig{
		RunSpec:    RunSpec{Ranks: 64, Seed: 133},
		Iterations: 200,
		Intervals:  []int{100, 50},
		MTTFs:      []Duration{1000 * Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.TableII.Rows) != len(direct.Rows) {
		t.Fatalf("rows = %d, want %d", len(out.TableII.Rows), len(direct.Rows))
	}
	for i, r := range direct.Rows {
		w := out.TableII.Rows[i]
		if w.C != r.C || w.E1NS != int64(r.E1) || w.E2NS != int64(r.E2) || w.F != r.F {
			t.Fatalf("row %d: wire %+v vs direct %+v", i, w, r)
		}
	}
	if out.SimTimeNS <= 0 {
		t.Fatalf("SimTimeNS = %d, want positive", out.SimTimeNS)
	}
}

// TestRunSpecProgressEvents pins the wire progress feed: every state
// change arrives as a serialized event with a sensible terminal tally.
func TestRunSpecProgressEvents(t *testing.T) {
	var events []ProgressEvent
	rs := RunSpec{
		Seed:       2013,
		Pool:       2,
		OnProgress: func(ev ProgressEvent) { events = append(events, ev) },
	}
	if _, _, err := runBlock(context.Background(), rs, &TableIParams{Victims: 5, MaxInjections: 50}); err != nil {
		t.Fatal(err)
	}
	if len(events) < 10 { // 5 victims × (started + completed)
		t.Fatalf("events = %d, want at least 10", len(events))
	}
	var last ProgressEvent
	states := map[string]int{}
	for _, ev := range events {
		states[ev.State]++
		last = ev
	}
	if states["started"] != 5 || states["completed"] != 5 {
		t.Fatalf("state histogram = %v", states)
	}
	if last.Done != 5 || last.Total != 5 || last.Failed != 0 {
		t.Fatalf("terminal tally = %+v", last)
	}
}

// TestProgressEventWireBytes pins the progress event's JSON layout: field
// names, order, types and which fields are omitted when empty. A change
// here breaks every client that reads the service's events stream.
func TestProgressEventWireBytes(t *testing.T) {
	for _, tc := range []struct {
		ev   ProgressEvent
		want string
	}{{
		ev: ProgressEvent{Index: 3, Label: "mttf=1000s c=100", Seed: -42, State: "failed", Attempt: 1,
			Error: `run panicked: "x"`, ElapsedNS: 1500000, WaitNS: 250, Done: 4, Failed: 1, Total: 9},
		want: `{"index":3,"label":"mttf=1000s c=100","seed":-42,"state":"failed","attempt":1,"error":"run panicked: \"x\"","elapsed_ns":1500000,"wait_ns":250,"done":4,"failed":1,"total":9}`,
	}, {
		ev:   ProgressEvent{State: "started", Attempt: 1, WaitNS: 7, Total: 2},
		want: `{"index":0,"state":"started","attempt":1,"elapsed_ns":0,"wait_ns":7,"done":0,"failed":0,"total":2}`,
	}} {
		got, err := json.Marshal(tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("ProgressEvent bytes:\n got %s\nwant %s", got, tc.want)
		}
	}
}

func TestNormalizeFillsDriverDefaults(t *testing.T) {
	spec := &CampaignSpec{Version: 1, Kind: KindTableII}
	spec.Normalize()
	if spec.Ranks != 32768 {
		t.Errorf("Ranks = %d, want the paper's 32768", spec.Ranks)
	}
	if spec.CallOverheadNS != int64(PaperCallOverhead) {
		t.Errorf("CallOverheadNS = %d, want PaperCallOverhead", spec.CallOverheadNS)
	}
	p := spec.TableII
	if p == nil {
		t.Fatal("Normalize did not create the table2 block")
	}
	if p.Iterations != 1000 || !reflect.DeepEqual(p.Intervals, []int{500, 250, 125}) ||
		!reflect.DeepEqual(p.MTTFSeconds, []float64{6000, 3000}) {
		t.Errorf("table2 defaults = %+v", p)
	}

	cross := &CampaignSpec{Version: 1, Kind: KindCrossover}
	cross.Normalize()
	if cross.Ranks != 24 || cross.Crossover == nil || len(cross.Crossover.MTTFSeconds) == 0 {
		t.Errorf("crossover defaults = ranks %d, %+v", cross.Ranks, cross.Crossover)
	}
}

// TestShortRunsDeriveValidIntervals pins the derived interval defaults on
// runs shorter than eight iterations: iterations/2,/4,/8 used to reach 0,
// which rejected table2 naming an interval the client never wrote and made
// first-impressions report an empty success (every rank panicked on the
// zero interval and the trial swallowed the error).
func TestShortRunsDeriveValidIntervals(t *testing.T) {
	t2 := &CampaignSpec{Version: 1, Kind: KindTableII, Ranks: 8, TableII: &TableIIParams{Iterations: 4}}
	canon, err := t2.Canonical()
	if err != nil {
		t.Fatalf("table2 with iterations 4: %v", err)
	}
	if !strings.Contains(string(canon), `"intervals":[2,1]`) {
		t.Errorf("table2 intervals for iterations 4: %s", canon)
	}

	fi := &CampaignSpec{Version: 1, Kind: KindFirstImpressions, Ranks: 64,
		Phases: &FirstImpressionsParams{Iterations: 4}}
	out, err := fi.RunWith(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Phases.Trials == 0 || out.SimTimeNS == 0 {
		t.Errorf("first-impressions with iterations 4 observed nothing: %+v", out.Phases)
	}

	// A trial that dies of anything but the expected abort is an error of
	// the study, not an observation to skip.
	_, _, err = runFirstImpressions(context.Background(), RunSpec{Ranks: 8},
		FirstImpressionsParams{Iterations: 4, Interval: -1, Trials: 2})
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Errorf("first-impressions with a panicking application: err = %v, want a *RunError", err)
	}
}

// TestKindTableConsistent pins the kind table against the types it
// indexes: every row's block name is the JSON name of exactly one
// CampaignSpec and one CampaignOutcome field, Normalize creates exactly
// that spec block, RunWith fills exactly that outcome block, the block's
// defaults are idempotent and valid, its validator names every violation
// under the block, and what the validator accepts runs.
func TestKindTableConsistent(t *testing.T) {
	// blocks maps each pointer field's JSON name to its index.
	blocks := func(typ reflect.Type) map[string]int {
		m := map[string]int{}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Pointer {
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				m[name] = i
			}
		}
		return m
	}
	// setBlocks lists the JSON names of v's non-nil block fields.
	setBlocks := func(v reflect.Value, fields map[string]int) []string {
		var set []string
		for name, i := range fields {
			if !v.Field(i).IsNil() {
				set = append(set, name)
			}
		}
		return set
	}
	specBlocks := blocks(reflect.TypeOf(CampaignSpec{}))
	outcomeBlocks := blocks(reflect.TypeOf(CampaignOutcome{}))
	if len(specBlocks) != len(campaignKinds) || len(outcomeBlocks) != len(campaignKinds) {
		t.Fatalf("%d kinds, %d spec blocks, %d outcome blocks", len(campaignKinds), len(specBlocks), len(outcomeBlocks))
	}

	specs, err := filepath.Glob(filepath.Join(surfaceDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ran := map[CampaignKind]bool{}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := DecodeCampaignSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		k := kindRow(spec.Kind)
		if k == nil {
			t.Fatalf("%s: kind %q has no table row", path, spec.Kind)
		}
		ran[k.kind] = true
		out, err := spec.RunWith(context.Background(), RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if set := setBlocks(reflect.ValueOf(*out), outcomeBlocks); !reflect.DeepEqual(set, []string{k.block}) {
			t.Errorf("%s: outcome blocks %v, want only %q", path, set, k.block)
		}
	}

	for _, k := range campaignKinds {
		if !ran[k.kind] {
			t.Errorf("kind %q has no spec under %s", k.kind, surfaceDir)
		}
		bare := &CampaignSpec{Kind: k.kind}
		bare.Normalize()
		if set := setBlocks(reflect.ValueOf(*bare), specBlocks); !reflect.DeepEqual(set, []string{k.block}) {
			t.Errorf("kind %q: Normalize set blocks %v, want only %q", k.kind, set, k.block)
		}
		// Defaults applied twice equal defaults applied once, and what they
		// fill validates.
		once, _ := json.Marshal(bare)
		bare.Normalize()
		if twice, _ := json.Marshal(bare); !bytes.Equal(once, twice) {
			t.Errorf("kind %q: a second Normalize moved the spec:\n once %s\ntwice %s", k.kind, once, twice)
		}
		if err := bare.Validate(); err != nil {
			t.Errorf("kind %q: the defaults do not validate: %v", k.kind, err)
		}

		// Drive every field of the block negative (NaN for floats): each
		// validator must object, and only under its own block.
		hostile := &CampaignSpec{Version: SpecVersion, Kind: k.kind}
		hostile.Normalize()
		block := reflect.ValueOf(hostile).Elem().Field(specBlocks[k.block]).Elem()
		for i := 0; i < block.NumField(); i++ {
			switch f := block.Field(i); f.Kind() {
			case reflect.Int:
				f.SetInt(-1)
			case reflect.Float64:
				f.SetFloat(math.NaN())
			case reflect.Slice:
				f.Set(reflect.MakeSlice(f.Type(), 1, 1))
				if f.Type().Elem().Kind() == reflect.Float64 {
					f.Index(0).SetFloat(math.NaN())
				}
			}
		}
		errs := k.get(hostile, false).validate(hostile.Ranks, specChecker{block: k.block})
		if len(errs) == 0 {
			t.Errorf("kind %q: validator accepted a hostile block", k.kind)
		}
		for _, err := range errs {
			var se *SpecError
			if !errors.As(err, &se) || !strings.HasPrefix(se.Field, k.block+".") {
				t.Errorf("kind %q: violation %v is not named under %q", k.kind, err, k.block)
			}
		}
	}

	t.Run("accepted means runnable", func(t *testing.T) { acceptedMeansRunnable(t, specBlocks) })

	// The crossover's divisibility check and its driver agree on the world
	// size a spec without ranks gets.
	cross := &CampaignSpec{Version: SpecVersion, Kind: KindCrossover}
	cross.Normalize()
	for degree := 2; degree <= cross.Ranks; degree++ {
		spec := &CampaignSpec{Version: SpecVersion, Kind: KindCrossover,
			Crossover: &CrossoverParams{Degrees: []int{degree}}}
		if got, want := spec.Validate() == nil, cross.Ranks%degree == 0; got != want {
			t.Errorf("degree %d at the default %d ranks: valid = %v, want %v", degree, cross.Ranks, got, want)
		}
	}

	// A halo past the eager threshold is refused by name, not deadlocked.
	halo := &CampaignSpec{Version: SpecVersion, Kind: KindCrossover,
		Crossover: &CrossoverParams{HaloBytes: 256*1024 + 1}}
	var se *SpecError
	if err := halo.Validate(); !errors.As(err, &se) || se.Field != "replication_crossover.halo_bytes" {
		t.Errorf("halo_bytes 262145: Validate = %v, want a *SpecError on replication_crossover.halo_bytes", err)
	}
}

// boundaryBases is one cheap campaign per kind, 8 ranks and at most 8
// iterations: the spec acceptedMeansRunnable varies one field of at a time.
var boundaryBases = map[CampaignKind]string{
	KindTableI:           `{"version":1,"kind":"table1","table1":{"victims":2,"max_injections":5}}`,
	KindTableII:          `{"version":1,"kind":"table2","ranks":8,"table2":{"iterations":8,"intervals":[4],"mttf_seconds":[20]}}`,
	KindIntervalSweep:    `{"version":1,"kind":"interval-sweep","ranks":8,"interval_sweep":{"iterations":8,"intervals":[4],"mttf_seconds":20,"seeds":[1]}}`,
	KindFirstImpressions: `{"version":1,"kind":"first-impressions","ranks":8,"first_impressions":{"iterations":8,"interval":4,"trials":2}}`,
	KindCrossover: `{"version":1,"kind":"replication-crossover","ranks":8,"replication_crossover":{"degrees":[2],
		"mttf_seconds":[100],"iterations":4,"compute_seconds":1,"checkpoint_seconds":1,"restart_seconds":1,"max_runs":20}}`,
	KindIOAblation: `{"version":1,"kind":"io-ablation","ranks":8,"io_ablation":{"iterations":8,"intervals":[4],"mttf_seconds":[20]}}`,
}

// boundaryExtras adds field-specific edges to acceptedMeansRunnable's
// walk: the crossover stencil posts both halo sends before either receive,
// so a halo one byte past the paper network's eager threshold deadlocks
// the ring unless Validate refuses it, and one at the threshold must run.
var boundaryExtras = map[string][]float64{
	"replication_crossover.halo_bytes": {256 * 1024, 256*1024 + 1},
}

// acceptedMeansRunnable walks every numeric field of every kind's block to
// the edges of what Validate accepts — 0 (use the default), 1 (the
// smallest count; as an MTTF, one so short the campaign exhausts max_runs)
// and, for a fraction, the top of its range — and requires the campaign to
// complete or to end in ErrAborted (specBlocks maps a block's JSON name to
// its CampaignSpec field). A value Validate refuses is skipped; a
// value it accepts must never take the application down with a panic.
func acceptedMeansRunnable(t *testing.T, specBlocks map[string]int) {
	for _, k := range campaignKinds {
		ran := 0
		blockType := reflect.TypeOf(CampaignSpec{}).Field(specBlocks[k.block]).Type.Elem()
		for i := 0; i < blockType.NumField(); i++ {
			field, _, _ := strings.Cut(blockType.Field(i).Tag.Get("json"), ",")
			values := []float64{0, 1}
			if strings.HasSuffix(field, "_fraction") {
				values = append(values, math.Nextafter(1, 0))
			}
			values = append(values, boundaryExtras[k.block+"."+field]...)
			for _, x := range values {
				spec, err := DecodeCampaignSpec([]byte(boundaryBases[k.kind]))
				if err != nil {
					t.Fatalf("kind %q: %v", k.kind, err)
				}
				f := reflect.ValueOf(spec).Elem().Field(specBlocks[k.block]).Elem().Field(i)
				if f.Kind() == reflect.Slice {
					f.Set(reflect.MakeSlice(f.Type(), 1, 1))
					f = f.Index(0)
				}
				switch f.Kind() {
				case reflect.Int, reflect.Int64:
					f.SetInt(int64(x))
				case reflect.Float64:
					f.SetFloat(x)
				default:
					continue
				}
				_, err = spec.RunWith(context.Background(), RunOptions{})
				if IsSpecError(err) {
					continue
				}
				ran++
				var panicked *runner.PanicError
				if errors.As(err, &panicked) {
					t.Errorf("kind %q: %s.%s = %v passes Validate and panics the run: %v", k.kind, k.block, field, x, err)
				} else if err != nil && !errors.Is(err, ErrAborted) {
					t.Errorf("kind %q: %s.%s = %v passes Validate and fails the run: %v", k.kind, k.block, field, x, err)
				}
			}
		}
		if ran == 0 {
			t.Errorf("kind %q: Validate accepted no boundary value", k.kind)
		}
	}
}

// FuzzCampaignSpecDecode asserts the decode path never panics and that
// everything it accepts survives a canonical round trip.
func FuzzCampaignSpecDecode(f *testing.F) {
	f.Add([]byte(`{"version":1,"kind":"table1"}`))
	f.Add([]byte(`{"version":1,"kind":"table2","seed":7,"table2":{"intervals":[500]}}`))
	f.Add([]byte(`{"version":1,"kind":"replication-crossover","replication_crossover":{"degrees":[2,3]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeCampaignSpec(data)
		if err != nil {
			if !IsSpecError(err) {
				t.Fatalf("decode error is not a *SpecError: %v", err)
			}
			return
		}
		// Whatever decoded must re-encode and decode to itself.
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeCampaignSpec(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("round trip diverged:\n in %+v\nout %+v", spec, back)
		}
		// Canonicalisation must never panic; on valid specs it must be
		// stable.
		if a, err := spec.Canonical(); err == nil {
			b, err := spec.Canonical()
			if err != nil || !bytes.Equal(a, b) {
				t.Fatalf("canonical not stable: %v", err)
			}
		}
	})
}
