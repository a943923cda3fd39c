package softerror

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultVictimCalibration(t *testing.T) {
	m := DefaultVictim()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	p := m.KillProbability()
	// Calibrated so the expected injections-to-failure (≈1/p) is near
	// Table I's mean of 21.97.
	if p < 1.0/26 || p > 1.0/18 {
		t.Fatalf("kill probability = %v (mean %v), want ≈ 1/22", p, 1/p)
	}
}

func TestValidateErrors(t *testing.T) {
	for _, m := range []VictimModel{
		{},
		{Regions: []Region{{Name: "x", Bytes: 0, Sensitivity: 0.5}}},
		{Regions: []Region{{Name: "x", Bytes: 10, Sensitivity: -0.1}}},
		{Regions: []Region{{Name: "x", Bytes: 10, Sensitivity: 1.5}}},
	} {
		if m.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", m)
		}
	}
}

func TestVictimDies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVictim(DefaultVictim(), rng)
	for i := 0; i < 100000 && !v.Dead(); i++ {
		v.Inject()
	}
	if !v.Dead() {
		t.Fatal("victim survived 100000 injections")
	}
	// Further injections report killed.
	killed, _ := v.Inject()
	if !killed {
		t.Fatal("dead victim reported alive")
	}
}

func TestCampaignTableIShape(t *testing.T) {
	res, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 100, MaxInjections: 100, Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if res.Victims != 100 || len(res.ToFailure) != 100 {
		t.Fatalf("victims = %d", res.Victims)
	}
	// Table I shape: mean ≈ 22, min small, max large, right-skewed
	// (median < mean), stddev comparable to the mean.
	if s.Mean < 15 || s.Mean > 30 {
		t.Errorf("mean = %v, want ≈ 22", s.Mean)
	}
	if s.Min > 3 {
		t.Errorf("min = %v, want small", s.Min)
	}
	if s.Max < 50 {
		t.Errorf("max = %v, want large", s.Max)
	}
	if s.Median >= s.Mean {
		t.Errorf("median %v >= mean %v: not right-skewed", s.Median, s.Mean)
	}
	if s.StdDev < s.Mean/2 || s.StdDev > 2*s.Mean {
		t.Errorf("stddev = %v vs mean %v", s.StdDev, s.Mean)
	}
	// Total = sum of per-victim counts.
	sum := 0
	for _, n := range res.ToFailure {
		sum += n
	}
	if sum != res.Injections {
		t.Errorf("injections = %d, sum = %d", res.Injections, sum)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{Victims: 50, MaxInjections: 100, Seed: 7}
	a, err := RunCampaignContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaignContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injections != b.Injections {
		t.Fatalf("non-deterministic: %d vs %d injections", a.Injections, b.Injections)
	}
	for i := range a.ToFailure {
		if a.ToFailure[i] != b.ToFailure[i] {
			t.Fatalf("victim %d: %d vs %d", i, a.ToFailure[i], b.ToFailure[i])
		}
	}
}

func TestCampaignConfigErrors(t *testing.T) {
	if _, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 0, MaxInjections: 10}); err == nil {
		t.Error("zero victims should fail")
	}
	if _, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 10, MaxInjections: 0}); err == nil {
		t.Error("zero cap should fail")
	}
	bad := VictimModel{Regions: []Region{{Name: "x", Bytes: -1}}}
	if bad.Validate() == nil {
		t.Error("bad model should fail")
	}
}

// injectionsToFailure injects into one victim of model m until it dies or
// max injections, returning the count.
func injectionsToFailure(m VictimModel, seed int64, max int) int {
	v := NewVictim(m, rand.New(rand.NewSource(seed)))
	n := 0
	for n < max && !v.Dead() {
		n++
		v.Inject()
	}
	return n
}

func TestCampaignCapRespected(t *testing.T) {
	// An insensitive victim survives every injection.
	m := VictimModel{Regions: []Region{{Name: "cold", Bytes: 1024, Sensitivity: 0}}}
	if n := injectionsToFailure(m, 1, 37); n != 37 {
		t.Fatalf("insensitive victim took %d injections, want 37", n)
	}
	// The campaign caps every victim's count, and a survivor records the
	// cap.
	res, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 20, MaxInjections: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Survived == 0 {
		t.Fatal("no victim survived 3 injections")
	}
	capped := 0
	for _, n := range res.ToFailure {
		if n > 3 {
			t.Fatalf("count %d exceeds the cap of 3", n)
		}
		if n == 3 {
			capped++
		}
	}
	if capped < res.Survived {
		t.Fatalf("%d victims survived but only %d recorded the cap", res.Survived, capped)
	}
}

func TestKillsByRegionBias(t *testing.T) {
	res, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 2000, MaxInjections: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The heap is by far the largest region; despite its low
	// sensitivity it should account for a large share of kills, and the
	// tiny register file for almost none in absolute terms.
	if res.KillsByRegion["heap"] < res.KillsByRegion["registers"] {
		t.Errorf("kills by region look wrong: %v", res.KillsByRegion)
	}
	total := 0
	for _, k := range res.KillsByRegion {
		total += k
	}
	if total+res.Survived != res.Victims {
		t.Errorf("kills %d + survivors %d != victims %d", total, res.Survived, res.Victims)
	}
}

func TestTableRendering(t *testing.T) {
	res, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 100, MaxInjections: 100, Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, want := range []string{"Victims", "Injections", "Minimum", "Maximum", "Mean", "Median", "Mode", "Std.Dev.", "100"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestRenderIsTheWholeReport: Render wraps the paper's table in what the
// Table I command line has always printed, and names the cap only when a
// victim reached it.
func TestRenderIsTheWholeReport(t *testing.T) {
	res, err := RunCampaignContext(context.Background(), CampaignConfig{Victims: 100, MaxInjections: 100, Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	report := res.Render()
	for _, want := range []string{"Table I: fault (bit flip) injection results\n\n" + res.Table() + "\nfatal flips",
		"  heap       43\n", "injections-to-failure distribution:\n", "p50 = 14, p90 = "} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "survived") {
		t.Errorf("no victim survived, yet:\n%s", report)
	}
	res, err = RunCampaignContext(context.Background(), CampaignConfig{Victims: 40, MaxInjections: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\n%d victims survived the 5-injection cap\n", res.Survived); res.Survived == 0 || !strings.Contains(res.Render(), want) {
		t.Errorf("report missing %q:\n%s", want, res.Render())
	}
}

func TestFlipFloat64(t *testing.T) {
	vals := []float64{1.0, 2.0, 3.0}
	old, new := FlipFloat64(vals, 1, 51)
	if old != 2.0 {
		t.Fatalf("old = %v", old)
	}
	if vals[1] != new || new == old {
		t.Fatalf("flip not applied: %v", vals)
	}
	// Flipping the same bit again restores the value.
	_, back := FlipFloat64(vals, 1, 51)
	if back != 2.0 {
		t.Fatalf("double flip = %v, want 2.0", back)
	}
}

func TestFlipFloat64BitRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bit 64 should panic")
		}
	}()
	FlipFloat64([]float64{1}, 0, 64)
}

func TestQuickFlipInvolution(t *testing.T) {
	f := func(v float64, bit uint8) bool {
		if math.IsNaN(v) {
			return true
		}
		b := int(bit % 64)
		vals := []float64{v}
		FlipFloat64(vals, 0, b)
		FlipFloat64(vals, 0, b)
		return vals[0] == v || (math.IsNaN(vals[0]) && math.IsNaN(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCampaignMeanTracksProbability(t *testing.T) {
	// Property: a higher-sensitivity victim dies in fewer injections on
	// average.
	low := VictimModel{Regions: []Region{{Name: "m", Bytes: 1024, Sensitivity: 0.02}}}
	high := VictimModel{Regions: []Region{{Name: "m", Bytes: 1024, Sensitivity: 0.2}}}
	mean := func(m VictimModel) float64 {
		sum := 0
		for i := int64(0); i < 300; i++ {
			sum += injectionsToFailure(m, 5+i, 1000)
		}
		return float64(sum) / 300
	}
	if a, b := mean(low), mean(high); a <= b {
		t.Fatalf("mean(low)=%v should exceed mean(high)=%v", a, b)
	}
}
