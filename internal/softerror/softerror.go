// Package softerror reproduces the fault (bit flip) injection experiments
// the paper reports from the Finject framework (Table I): bit flips are
// injected into the process image and registers of a victim application
// until the victim fails, over many victim instances, with the number of
// injections to failure summarised by min/max/mean/median/mode/stddev.
//
// Finject used ptrace(2) against real victim processes; here the victim is
// a process-image model with memory regions of different sensitivity — a
// flip kills the victim only if it lands in state that is still live
// (read before being overwritten), which is what makes most flips benign.
// The region sizes and sensitivities are calibrated so that the
// injections-to-failure distribution matches Table I's shape (mean ≈ 22,
// right-skewed, minimum 1, maximum near the 100-injection cap).
//
// The package also provides the building blocks of the paper's named
// future work — a soft-error injector for simulated MPI processes — via
// FlipFloat64, which corrupts application data in place so silent data
// corruption propagation can be studied (as in the redMPI work the paper
// discusses).
package softerror

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"xsim/internal/runner"
	"xsim/internal/stats"
)

// Region is one part of a victim's process image.
type Region struct {
	// Name identifies the region ("registers", "stack", ...).
	Name string
	// Bytes is the region's size; injection sites are chosen uniformly
	// over all bytes of the image.
	Bytes int
	// Sensitivity is the probability that a bit flip in this region hits
	// live state and kills the victim (registers are hot, most of the
	// heap is cold or masked by the application's structure).
	Sensitivity float64
}

// VictimModel describes a victim application's process image.
type VictimModel struct {
	Regions []Region
}

// DefaultVictim returns the calibrated victim model: a small register
// file that is almost always live, a moderately sensitive stack and code
// segment, and a large mostly-cold heap. The weighted per-flip kill
// probability is ≈ 1/22, matching Table I's mean of 21.97 injections to
// failure.
func DefaultVictim() VictimModel {
	return VictimModel{Regions: []Region{
		{Name: "registers", Bytes: 256, Sensitivity: 0.50},
		{Name: "stack", Bytes: 64 * 1024, Sensitivity: 0.12},
		{Name: "code", Bytes: 128 * 1024, Sensitivity: 0.15},
		{Name: "data", Bytes: 256 * 1024, Sensitivity: 0.044},
		{Name: "heap", Bytes: 1024 * 1024, Sensitivity: 0.029},
	}}
}

// Validate reports a configuration error, if any.
func (m VictimModel) Validate() error {
	if len(m.Regions) == 0 {
		return fmt.Errorf("softerror: victim has no regions")
	}
	for _, r := range m.Regions {
		if r.Bytes <= 0 {
			return fmt.Errorf("softerror: region %q has %d bytes", r.Name, r.Bytes)
		}
		if r.Sensitivity < 0 || r.Sensitivity > 1 {
			return fmt.Errorf("softerror: region %q sensitivity %g outside [0,1]", r.Name, r.Sensitivity)
		}
	}
	return nil
}

// TotalBytes returns the image size.
func (m VictimModel) TotalBytes() int {
	total := 0
	for _, r := range m.Regions {
		total += r.Bytes
	}
	return total
}

// KillProbability returns the per-flip probability of killing the victim
// (region sizes weighting region sensitivities).
func (m VictimModel) KillProbability() float64 {
	total := float64(m.TotalBytes())
	var p float64
	for _, r := range m.Regions {
		p += float64(r.Bytes) / total * r.Sensitivity
	}
	return p
}

// Victim is one running victim instance accepting injections.
type Victim struct {
	model VictimModel
	rng   *rand.Rand
	dead  bool
}

// NewVictim starts a victim instance.
func NewVictim(model VictimModel, rng *rand.Rand) *Victim {
	return &Victim{model: model, rng: rng}
}

// Inject flips one random bit in the victim's image. It reports whether
// the victim failed and which region the flip landed in.
func (v *Victim) Inject() (killed bool, region string) {
	if v.dead {
		return true, ""
	}
	site := v.rng.Intn(v.model.TotalBytes())
	for _, r := range v.model.Regions {
		if site < r.Bytes {
			if v.rng.Float64() < r.Sensitivity {
				v.dead = true
				return true, r.Name
			}
			return false, r.Name
		}
		site -= r.Bytes
	}
	panic("softerror: injection site out of image")
}

// Dead reports whether the victim failed.
func (v *Victim) Dead() bool { return v.dead }

// CampaignConfig parameterises an injection campaign.
type CampaignConfig struct {
	// Victims is the number of victim application instances (Table I
	// uses 100).
	Victims int
	// MaxInjections caps the injections per victim (Table I's arbitrary
	// maximum of 100).
	MaxInjections int
	// Seed makes the campaign deterministic.
	Seed int64
	// Pool caps the number of victims injected concurrently (0 = one per
	// processor); each victim's random sequence depends only on Seed and
	// its index, so the result is identical at any pool size.
	Pool int
	// Logf receives campaign progress messages (nil discards them).
	Logf func(format string, args ...any)
	// OnProgress, when set, receives the campaign pool's serialized
	// per-victim progress reports.
	OnProgress func(runner.Progress)
}

// CampaignResult summarises an injection campaign in Table I's terms. The
// JSON names are its wire form, the table1 block of a campaign outcome.
type CampaignResult struct {
	// Victims is the number of victim instances.
	Victims int `json:"victims"`
	// Injections is the number of injected faults across all runs.
	Injections int `json:"injections"`
	// ToFailure holds each victim's injections-to-failure count
	// (victims surviving the cap record the cap).
	ToFailure []int `json:"to_failure"`
	// Survived counts victims that outlived the injection cap.
	Survived int `json:"survived"`
	// KillsByRegion counts fatal flips per region.
	KillsByRegion map[string]int `json:"kills_by_region"`
	// Summary are the Table I statistics over ToFailure.
	Summary stats.Summary `json:"summary"`
}

// victimOutcome is one victim's campaign contribution. A zero value marks
// a victim that never ran (campaign cancelled first).
type victimOutcome struct {
	injections int
	killed     bool
	region     string
}

// RunCampaignContext executes the injection campaign, fanning the
// independent victims out across the campaign pool. Each victim draws
// from its own rand.Rand seeded by Seed and the victim index, and the
// summary merges outcomes in victim order, so the result is identical to
// the sequential campaign at any pool size. Cancellation returns the
// outcomes of the victims that finished.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Victims <= 0 {
		return nil, fmt.Errorf("softerror: Victims must be positive")
	}
	if cfg.MaxInjections <= 0 {
		return nil, fmt.Errorf("softerror: MaxInjections must be positive")
	}
	model := DefaultVictim()

	tasks := make([]runner.Task[victimOutcome], cfg.Victims)
	for i := 0; i < cfg.Victims; i++ {
		seed := cfg.Seed + int64(i)
		tasks[i] = runner.Task[victimOutcome]{
			Spec: runner.Spec{Index: i, Label: fmt.Sprintf("victim=%d", i), Seed: seed},
			Run: func(ctx context.Context) (victimOutcome, error) {
				v := NewVictim(model, rand.New(rand.NewSource(seed)))
				var out victimOutcome
				for out.injections < cfg.MaxInjections {
					out.injections++
					killed, region := v.Inject()
					if killed {
						out.killed, out.region = true, region
						break
					}
				}
				return out, nil
			},
		}
	}
	outcomes, _, err := runner.Run(ctx, runner.Config{Pool: cfg.Pool, Logf: cfg.Logf, OnProgress: cfg.OnProgress}, tasks)

	res := &CampaignResult{
		Victims:       cfg.Victims,
		KillsByRegion: make(map[string]int),
	}
	for _, out := range outcomes {
		if out.injections == 0 {
			continue // cancelled before this victim ran
		}
		res.Injections += out.injections
		if out.killed {
			res.KillsByRegion[out.region]++
		} else {
			res.Survived++
		}
		res.ToFailure = append(res.ToFailure, out.injections)
	}
	res.Summary = stats.SummarizeInts(res.ToFailure)
	return res, err
}

// Table renders the campaign in the layout of the paper's Table I.
func (r *CampaignResult) Table() string {
	s := r.Summary
	rows := [][]string{
		{"Victims", fmt.Sprintf("%d", r.Victims), "# of victim application instances"},
		{"Injections", fmt.Sprintf("%d", r.Injections), "# of injected failures for all runs"},
		{"Minimum", fmt.Sprintf("%.0f", s.Min), "# of injections to victim failure"},
		{"Maximum", fmt.Sprintf("%.0f", s.Max), "# of injections to victim failure"},
		{"Mean", fmt.Sprintf("%.2f", s.Mean), "# of injections to victim failure"},
		{"Median", fmt.Sprintf("%.0f", s.Median), "# of injections to victim failure"},
		{"Mode", fmt.Sprintf("%.0f", s.Mode), "# of injections to victim failure"},
		{"Std.Dev.", fmt.Sprintf("%.2f", s.StdDev), "# of injections to victim failure"},
	}
	return stats.Table([]string{"Field", "Value", "Description"}, rows)
}

// Render prints the whole campaign report: the paper's Table I, the
// victims that outlived the cap (they record it, so it is the maximum),
// the fatal flips per region of the default image, and the
// injections-to-failure distribution (the shape behind Table I's summary
// statistics) with its percentiles.
func (r *CampaignResult) Render() string {
	var b strings.Builder
	b.WriteString("Table I: fault (bit flip) injection results\n\n")
	b.WriteString(r.Table())
	if r.Survived > 0 {
		fmt.Fprintf(&b, "\n%d victims survived the %.0f-injection cap\n", r.Survived, r.Summary.Max)
	}
	b.WriteString("\nfatal flips by image region:\n")
	for _, region := range DefaultVictim().Regions {
		fmt.Fprintf(&b, "  %-10s %d\n", region.Name, r.KillsByRegion[region.Name])
	}
	xs := make([]float64, len(r.ToFailure))
	for i, n := range r.ToFailure {
		xs[i] = float64(n)
	}
	b.WriteString("\ninjections-to-failure distribution:\n")
	b.WriteString(stats.Histogram(xs, 10, 40))
	fmt.Fprintf(&b, "\np50 = %.0f, p90 = %.0f, p99 = %.0f injections\n",
		stats.Percentile(xs, 50), stats.Percentile(xs, 90), stats.Percentile(xs, 99))
	return b.String()
}

// FlipFloat64 flips one bit of a float64 in place and returns the old and
// new values — the building block of soft-error injection into simulated
// application state (memory bit flips in MPI application data, as studied
// by the redMPI work the paper discusses). bit must be in [0, 64).
func FlipFloat64(vals []float64, idx, bit int) (old, new float64) {
	if bit < 0 || bit >= 64 {
		panic(fmt.Sprintf("softerror: bit %d outside [0,64)", bit))
	}
	old = vals[idx]
	new = math.Float64frombits(math.Float64bits(old) ^ (1 << uint(bit)))
	vals[idx] = new
	return old, new
}
