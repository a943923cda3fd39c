package xsim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// surfaceDir holds one small wire spec per campaign kind (plus table2 with
// paper_io) and, next to each, a golden recorded at the last commit in
// which Table II, the interval sweep and the checkpoint-I/O ablation each
// had a grid body of their own and wire.go/outcome.go switched on the kind
// five times: the canonical outcome bytes, the Pool=1 progress sequence as
// (index, label, seed, state), and the matching driver's Render() text. A
// change that is meant to alter any of them replaces the golden with the
// text the failing test prints. ci.sh's campaign-service smoke serves the
// same spec files.
const surfaceDir = "testdata/surface"

// surfaceDrivers builds, by hand, the experiment-driver call equivalent to
// each spec file, so the goldens also pin that a wire spec and a flag-built
// config describe the same campaign.
var surfaceDrivers = map[string]func(ctx context.Context, rs RunSpec) (string, error){
	"table1": func(ctx context.Context, rs RunSpec) (string, error) {
		rs.Seed = 2013
		res, err := RunTableIContext(ctx, TableIConfig{RunSpec: rs, Victims: 10, MaxInjections: 50})
		if err != nil {
			return "", err
		}
		return res.Table(), nil
	},
	"table2": func(ctx context.Context, rs RunSpec) (string, error) {
		rs.Ranks, rs.Seed = 64, 133
		tab, err := RunTableIIContext(ctx, TableIIConfig{
			RunSpec: rs, Iterations: 200, Intervals: []int{100, 50}, MTTFs: []Duration{1000 * Second},
		})
		if err != nil {
			return "", err
		}
		return tab.Render(), nil
	},
	"table2-paper-io": func(ctx context.Context, rs RunSpec) (string, error) {
		rs.Ranks, rs.Seed = 64, 133
		tab, err := RunTableIIContext(ctx, TableIIConfig{
			RunSpec: rs, Iterations: 200, Intervals: []int{100, 50}, MTTFs: []Duration{1000 * Second},
			FSModel: PaperPFS(),
		})
		if err != nil {
			return "", err
		}
		return tab.Render(), nil
	},
	"interval-sweep": func(ctx context.Context, rs RunSpec) (string, error) {
		rs.Ranks = 64
		s, err := RunIntervalSweepContext(ctx, IntervalSweepConfig{
			RunSpec: rs, Iterations: 200, Intervals: []int{100, 50, 25}, MTTF: 600 * Second,
			Seeds: []int64{133, 134},
		})
		if err != nil {
			return "", err
		}
		return s.Render(), nil
	},
	"first-impressions": func(ctx context.Context, rs RunSpec) (string, error) {
		rs.Ranks, rs.Seed = 64, 1
		fi, err := RunFirstImpressionsContext(ctx, FirstImpressionsConfig{
			RunSpec: rs, Iterations: 200, Interval: 25, Trials: 6,
		})
		if err != nil {
			return "", err
		}
		return fi.Render(), nil
	},
	"replication-crossover": func(ctx context.Context, rs RunSpec) (string, error) {
		cfg := smokeCrossoverConfig()
		rs.Ranks, rs.Seed = cfg.Ranks, cfg.Seed
		cfg.RunSpec = rs
		table, err := RunReplicationCrossoverContext(ctx, cfg)
		if err != nil {
			return "", err
		}
		return table.Render(), nil
	},
	"io-ablation": func(ctx context.Context, rs RunSpec) (string, error) {
		rs.Ranks, rs.Seed = 64, 133
		tab, err := RunCheckpointIOAblationContext(ctx, CheckpointIOAblationConfig{
			RunSpec: rs, Iterations: 60, Intervals: []int{20}, MTTFs: []Duration{150 * Second},
		})
		if err != nil {
			return "", err
		}
		return tab.Render(), nil
	},
}

// progressLines records a campaign's progress feed in golden form.
func progressLines(into *[]string) func(ProgressEvent) {
	return func(ev ProgressEvent) {
		*into = append(*into, fmt.Sprintf("progress %d %q %d %s", ev.Index, ev.Label, ev.Seed, ev.State))
	}
}

// TestCampaignSurfaceMatchesGolden replays every spec under surfaceDir
// through CampaignSpec.RunWith and through its hand-built driver call, both
// at Pool=1, and compares outcome bytes, task order and rendering with the
// golden. The two progress feeds must also agree with each other: the wire
// dispatch adds no task and reorders none.
func TestCampaignSurfaceMatchesGolden(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join(surfaceDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(surfaceDrivers) {
		t.Fatalf("%d spec files under %s, %d drivers", len(specs), surfaceDir, len(surfaceDrivers))
	}
	for _, path := range specs {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			driver, ok := surfaceDrivers[name]
			if !ok {
				t.Fatalf("no driver for %s", path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := DecodeCampaignSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			spec.Pool = 1
			var wireFeed, driverFeed []string
			out, err := spec.RunWith(context.Background(), RunOptions{OnProgress: progressLines(&wireFeed)})
			if err != nil {
				t.Fatal(err)
			}
			canon, err := out.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			render, err := driver(context.Background(), RunSpec{Pool: 1, OnProgress: progressLines(&driverFeed)})
			if err != nil {
				t.Fatal(err)
			}
			if w, d := strings.Join(wireFeed, "\n"), strings.Join(driverFeed, "\n"); w != d {
				t.Errorf("progress feeds differ:\n wire:\n%s\n driver:\n%s", w, d)
			}
			got := fmt.Sprintf("outcome %s\n%s\nrender:\n%s", canon, strings.Join(wireFeed, "\n"), render)
			goldenPath := strings.TrimSuffix(path, ".json") + ".golden"
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != got {
				t.Errorf("campaign surface diverges from %s:\n got:\n%s\n want:\n%s", goldenPath, got, want)
			}
		})
	}
}
