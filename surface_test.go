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
// (index, label, seed, state), and the kind's rendered table. A
// change that is meant to alter any of them replaces the golden with the
// text the failing test prints. ci.sh's campaign-service smoke serves the
// same spec files.
const surfaceDir = "testdata/surface"

// surfaceBlocks builds, by hand, the trunk and parameter block equivalent
// to each spec file, so the goldens also pin that a wire spec and a block
// written in Go describe the same campaign.
var surfaceBlocks = map[string]func(rs *RunSpec) kindBlock{
	"table1": func(rs *RunSpec) kindBlock {
		rs.Seed = 2013
		return &TableIParams{Victims: 10, MaxInjections: 50}
	},
	"table2": func(rs *RunSpec) kindBlock {
		rs.Ranks, rs.Seed = 64, 133
		return &TableIIParams{Iterations: 200, Intervals: []int{100, 50}, MTTFSeconds: []float64{1000}}
	},
	"table2-paper-io": func(rs *RunSpec) kindBlock {
		rs.Ranks, rs.Seed = 64, 133
		return &TableIIParams{Iterations: 200, Intervals: []int{100, 50}, MTTFSeconds: []float64{1000}, PaperIO: true}
	},
	"interval-sweep": func(rs *RunSpec) kindBlock {
		rs.Ranks = 64
		return &IntervalSweepParams{Iterations: 200, Intervals: []int{100, 50, 25}, MTTFSeconds: 600, Seeds: []int64{133, 134}}
	},
	"first-impressions": func(rs *RunSpec) kindBlock {
		rs.Ranks, rs.Seed = 64, 1
		return &FirstImpressionsParams{Iterations: 200, Interval: 25, Trials: 6}
	},
	"replication-crossover": func(rs *RunSpec) kindBlock {
		smoke, p := smokeCrossover()
		rs.Ranks, rs.Seed = smoke.Ranks, smoke.Seed
		return &p
	},
	"io-ablation": func(rs *RunSpec) kindBlock {
		rs.Ranks, rs.Seed = 64, 133
		return &IOAblationParams{Iterations: 60, Intervals: []int{20}, MTTFSeconds: []float64{150}}
	},
}

// runBlock runs a parameter block on a trunk built in Go the way
// RunRendered runs a spec's: the block's defaults, then its driver, then
// its rendering. Unless rs.ProgMode is set, every kind's simulated ranks
// run as closure VPs, each driving the kind's program through
// Env.RunProg.
func runBlock(ctx context.Context, rs RunSpec, block kindBlock) (*CampaignOutcome, string, error) {
	block.defaults(&rs)
	out := &CampaignOutcome{Version: SpecVersion}
	stats, err := block.run(ctx, rs, out)
	if err != nil {
		return nil, "", err
	}
	out.SimTimeNS = int64(stats.SimTime)
	return out, block.render(rs, out), nil
}

// surfaceCacheKeys are the surface specs' content addresses, recorded at
// the last commit whose wire campaigns ran closure VPs. How a campaign is
// executed is not part of its canonical form, so the switch to program VPs
// must leave them, and every result stored under them, valid.
var surfaceCacheKeys = map[string]string{
	"first-impressions":     "1aaaf187e73b0b5fefac38dc522e043c3ed07183db5dcffd53e6428c5047e1b1",
	"interval-sweep":        "87f1863357abc7236f3a046610113466c1a0458f20e0a082cf71d63ab1c97a0d",
	"io-ablation":           "fea6cd2f3742e11a9316fd71c2ebf9d638e01cc3571d56d7872fee851c2c93f7",
	"replication-crossover": "648dd8172ad707f4a80dde3c82df6bb01a43cef4b805d990fe7d3b3f0689cb20",
	"table1":                "fd8e9451decb062424165b99902ccd9cd591cbd61223c5d198ab32e77e233d46",
	"table2-paper-io":       "0c3c74c704a17e8961043c2c2b336507cdb33a81db8e9d39c1e12e13e20f0ac0",
	"table2":                "2de772ea005f0697700edf797e0c32b74bb5441de0f74cbce78a721ddb27dbc4",
}

// progressLines records a campaign's progress feed in golden form.
func progressLines(into *[]string) func(ProgressEvent) {
	return func(ev ProgressEvent) {
		*into = append(*into, fmt.Sprintf("progress %d %q %d %s", ev.Index, ev.Label, ev.Seed, ev.State))
	}
}

// TestCampaignSurfaceMatchesGolden replays every spec under surfaceDir
// through CampaignSpec.RunRendered (program VPs) and its hand-built block
// through runBlock (closure VPs), both at Pool=1. The two must agree on
// outcome bytes, task order and rendered text, and the golden pins all
// three.
func TestCampaignSurfaceMatchesGolden(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join(surfaceDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(surfaceBlocks) {
		t.Fatalf("%d spec files under %s, %d blocks", len(specs), surfaceDir, len(surfaceBlocks))
	}
	for _, path := range specs {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			build, ok := surfaceBlocks[name]
			if !ok {
				t.Fatalf("no block for %s", path)
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
			out, text, err := spec.RunRendered(context.Background(), RunOptions{OnProgress: progressLines(&wireFeed)})
			if err != nil {
				t.Fatal(err)
			}
			if key, err := spec.CacheKey(); err != nil || key != surfaceCacheKeys[name] {
				t.Errorf("cache key %s (err %v), want %s: stored results would be orphaned", key, err, surfaceCacheKeys[name])
			}
			canon, err := out.Canonical()
			if err != nil {
				t.Fatal(err)
			}

			rs := RunSpec{Pool: 1, OnProgress: progressLines(&driverFeed)}
			driverOut, render, err := runBlock(context.Background(), rs, build(&rs))
			if err != nil {
				t.Fatal(err)
			}
			driverOut.Kind = spec.Kind
			if driverCanon, err := driverOut.Canonical(); err != nil || string(driverCanon) != string(canon) {
				t.Errorf("closure-mode outcome differs (err %v):\n got: %s\nwant: %s", err, driverCanon, canon)
			}
			if w, d := strings.Join(wireFeed, "\n"), strings.Join(driverFeed, "\n"); w != d {
				t.Errorf("progress feeds differ:\n wire:\n%s\n driver:\n%s", w, d)
			}
			if render != text {
				t.Errorf("RunRendered's text differs from the block's rendering:\n got:\n%s\n want:\n%s", text, render)
			}
			// Table I's golden holds the paper's table alone, which the
			// full injection report contains.
			if name == "table1" {
				render = driverOut.TableI.Table()
				if !strings.Contains(text, render) {
					t.Errorf("Table I report lacks the paper's table:\n%s", text)
				}
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

// TestWireCampaignsRunProgramVPs pins the execution mode of the one front
// door: a wire spec's trunk is a program-mode one, and the surface spec of
// every kind that simulates ranks steps state machines without ever
// borrowing a carrier goroutine. (That the results are those of the
// closure-mode driver calls is TestCampaignSurfaceMatchesGolden.)
func TestWireCampaignsRunProgramVPs(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join(surfaceDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range specs {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := DecodeCampaignSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			spec.Normalize()
			rs := spec.runSpec(RunOptions{})
			if !rs.ProgMode {
				t.Error("a wire spec's trunk is a closure-mode RunSpec")
			}
			stats, err := kindRow(spec.Kind).get(spec, false).run(context.Background(), rs, &CampaignOutcome{})
			if err != nil {
				t.Fatal(err)
			}
			if spec.Kind == KindTableI {
				return // its victims are process-image models, not ranks
			}
			if e := stats.Engine; e.ProgramSteps == 0 || e.CarriersSpawned != 0 {
				t.Errorf("engine ran %d program steps and spawned %d carriers, want only program steps", e.ProgramSteps, e.CarriersSpawned)
			}
		})
	}
}
