// Benchmarks regenerating the paper's evaluation (one per table/figure)
// plus the ablation studies called out in DESIGN.md. Simulated-time
// results are attached as custom metrics (simsec = simulated seconds), so
// `go test -bench=. -benchmem` prints the same quantities the paper's
// tables report alongside the harness's own wall-clock cost.
//
// The paper's Table II runs at 32,768 simulated MPI ranks; the benchmarks
// default to 512 ranks so the suite stays fast, and honour
// XSIM_BENCH_RANKS for full-scale runs:
//
//	XSIM_BENCH_RANKS=32768 go test -bench=TableII -benchtime=1x
package xsim

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"xsim/internal/topology"
)

// benchRanks returns the rank count for the table benchmarks.
func benchRanks() int {
	if s := os.Getenv("XSIM_BENCH_RANKS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 512
}

// BenchmarkTableI regenerates Table I: the fault (bit flip) injection
// campaign (100 victims, 100-injection cap). Metrics: the mean/median/max
// injections-to-failure the paper reports (21.97 / 17 / 98).
func BenchmarkTableI(b *testing.B) {
	var mean, median, max float64
	for i := 0; i < b.N; i++ {
		out, _, err := runBlock(context.Background(), RunSpec{Seed: 2013}, &TableIParams{})
		if err != nil {
			b.Fatal(err)
		}
		s := out.TableI.Summary
		mean, median, max = s.Mean, s.Median, s.Max
	}
	b.ReportMetric(mean, "mean-inj")
	b.ReportMetric(median, "median-inj")
	b.ReportMetric(max, "max-inj")
}

// BenchmarkTableII regenerates Table II: the heat application with the
// checkpoint interval (500/250/125 of 1,000 iterations) and the system
// MTTF (6,000 s / 3,000 s) varied. The table itself is printed once; the
// headline E2 cells are attached as metrics.
func BenchmarkTableII(b *testing.B) {
	ranks := benchRanks()
	var (
		out  *CampaignOutcome
		text string
	)
	for i := 0; i < b.N; i++ {
		var err error
		out, text, err = runBlock(context.Background(), RunSpec{Ranks: ranks, Seed: 133}, &TableIIParams{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("Table II at %d ranks:\n%s", ranks, text)
	for _, r := range out.TableII.Rows {
		if r.MTTFSeconds > 0 {
			b.ReportMetric(Duration(r.E2NS).Seconds(), fmt.Sprintf("E2(mttf=%.0fs,C=%d)", r.MTTFSeconds, r.C))
		}
	}
}

// BenchmarkFirstImpressions regenerates the §V-D failure-mode study:
// failures strike during computation, are detected in the halo exchange or
// the barrier, and leave incomplete/corrupted checkpoints behind.
func BenchmarkFirstImpressions(b *testing.B) {
	var (
		out  *CampaignOutcome
		text string
	)
	for i := 0; i < b.N; i++ {
		var err error
		out, text, err = runBlock(context.Background(), RunSpec{Ranks: 64, Seed: 1},
			&FirstImpressionsParams{Trials: 8, Iterations: 200, Interval: 25})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", text)
	fi := out.Phases
	b.ReportMetric(float64(fi.FailedIn["compute"]), "failed-in-compute")
	b.ReportMetric(float64(fi.DetectedIn["halo-exchange"]), "detected-in-halo")
	b.ReportMetric(float64(fi.DetectedIn["barrier"]), "detected-in-barrier")
}

// BenchmarkCampaign measures the campaign-orchestration layer: a heat
// grid of 16 seeded failure/restart campaigns (plus its two E1 runs) over
// a small heat workload, sequential (pool=1) vs four campaigns in flight
// (pool=4). pool=1 is the orchestration-overhead floor; on a multi-core
// host the pooled run approaches pool× throughput (on a single-processor
// host the two are equal — the pool buys nothing without processors to
// spread over). The simulated virtual seconds per grid are attached as a
// metric.
func BenchmarkCampaign(b *testing.B) {
	for _, pool := range []int{1, 4} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			var simSecs float64
			for i := 0; i < b.N; i++ {
				_, stats, err := failureGrid(b, RunSpec{Seed: 42, Pool: pool}, 50, 16).run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if stats.Runner.Completed != 18 {
					b.Fatalf("completed = %d", stats.Runner.Completed)
				}
				simSecs = stats.SimTime.Seconds()
			}
			b.ReportMetric(simSecs, "simsec")
		})
	}
}

// BenchmarkAblationDetectionTimeout sweeps the configurable network
// communication timeout (§IV-C): the survivor's detection latency tracks
// the timeout directly.
func BenchmarkAblationDetectionTimeout(b *testing.B) {
	for _, timeout := range []Duration{100 * Millisecond, Second, 5 * Second, 30 * Second, 60 * Second} {
		b.Run(fmt.Sprintf("timeout=%v", timeout), func(b *testing.B) {
			var detectAfter float64
			for i := 0; i < b.N; i++ {
				net := DefaultNet(4)
				net.System.DetectionTimeout = timeout
				net.OnNode.DetectionTimeout = timeout
				sim, err := New(Config{
					Ranks:    4,
					Net:      net,
					Failures: Schedule{{Rank: 2, At: Time(10 * Second)}},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(func(e *Env) {
					defer e.Finalize()
					w := e.World()
					w.SetErrorHandler(ErrorsReturn)
					switch e.Rank() {
					case 2:
						e.Sleep(Hour) // interruptible: fails at exactly 10 s
					case 0:
						if _, err := w.Recv(2, 0); err == nil {
							b.Error("recv from failed rank should error")
						}
						detectAfter = (e.Now() - Time(10*Second)).Seconds()
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed != 1 {
					b.Fatalf("failure did not activate: %+v", res)
				}
			}
			b.ReportMetric(detectAfter, "detect-simsec")
		})
	}
}

// BenchmarkAblationEagerThreshold sweeps the eager/rendezvous threshold
// (§V-C sets 256 kB): with a late-posted receive, eager delivery is
// unaffected while rendezvous pays the handshake after the post.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	const msgSize = 256 * 1024
	for _, threshold := range []int{0, 4 * 1024, 256 * 1024, 1 << 20} {
		b.Run(fmt.Sprintf("threshold=%dkB", threshold/1024), func(b *testing.B) {
			var recvDone, sendDone float64
			for i := 0; i < b.N; i++ {
				net := DefaultNet(2)
				net.EagerThreshold = threshold
				sim, err := New(Config{Ranks: 2, Net: net})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(func(e *Env) {
					defer e.Finalize()
					w := e.World()
					if e.Rank() == 0 {
						if err := w.SendN(1, 0, msgSize); err != nil {
							b.Error(err)
						}
						// Eager senders complete after local injection;
						// rendezvous senders stall until the late
						// receive posts — the protocol's key trade-off.
						sendDone = e.Now().Seconds()
					} else {
						e.Elapse(Millisecond) // the receive posts late
						if _, err := w.Recv(0, 0); err != nil {
							b.Error(err)
						}
						recvDone = e.Now().Seconds()
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sendDone*1e6, "send-simµs")
			b.ReportMetric(recvDone*1e6, "recv-simµs")
		})
	}
}

// BenchmarkAblationCollectives compares the paper's linear collective
// algorithms against binomial trees: the linear barrier cost grows with
// the rank count, the tree's with its logarithm.
func BenchmarkAblationCollectives(b *testing.B) {
	for _, algo := range []struct {
		name string
		conf func(*Config)
	}{
		{"linear", func(*Config) {}},
		{"tree", func(c *Config) { c.Collectives = 1 }},
	} {
		for _, n := range []int{64, 512} {
			b.Run(fmt.Sprintf("%s/ranks=%d", algo.name, n), func(b *testing.B) {
				var barrierTime float64
				for i := 0; i < b.N; i++ {
					cfg := Config{Ranks: n, CallOverhead: PaperCallOverhead}
					algo.conf(&cfg)
					sim, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					res, err := sim.Run(func(e *Env) {
						defer e.Finalize()
						if err := e.World().Barrier(); err != nil {
							b.Error(err)
						}
					})
					if err != nil {
						b.Fatal(err)
					}
					barrierTime = res.SimTime.Seconds()
				}
				b.ReportMetric(barrierTime, "barrier-simsec")
			})
		}
	}
}

// BenchmarkAblationCheckpointIO re-runs a Table II cell with the
// file-system cost model enabled — the overhead the paper explicitly
// excluded because its file-system model was a work in progress.
func BenchmarkAblationCheckpointIO(b *testing.B) {
	for _, mode := range []struct {
		name string
		conf func(*TableIIConfig)
	}{
		// The paper's configuration: checkpoint I/O costs nothing.
		{"free-io", func(*TableIIConfig) {}},
		// A realistic PFS barely moves E1 — the per-rank checkpoints are
		// tiny, which is exactly why the paper excluded the overhead.
		{"paper-pfs", func(c *TableIIConfig) { c.FSModel = PaperPFS() }},
		// A pathological PFS (1 s metadata ops, 1 MB/s) makes the cost
		// model's contribution visible.
		{"slow-pfs", func(c *TableIIConfig) {
			c.FSModel.MetadataLatency = Second
			c.FSModel.WriteBandwidth = 1e6
			c.FSModel.ReadBandwidth = 1e6
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var e1 float64
			for i := 0; i < b.N; i++ {
				cfg := TableIIConfig{
					RunSpec:   RunSpec{Ranks: 64, Seed: 133},
					Intervals: []int{125},
					MTTFs:     []Duration{6000 * Second},
				}
				mode.conf(&cfg)
				tab, err := RunTableIIContext(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				e1 = tab.Rows[1].E1.Seconds()
			}
			b.ReportMetric(e1, "E1-simsec")
		})
	}
}

// BenchmarkAblationContention compares the contention-free base network
// model (the paper's) against endpoint NIC contention on the worst case
// for a linear collective: a gather-style incast at rank 0.
func BenchmarkAblationContention(b *testing.B) {
	const n = 65
	const size = 128 * 1024
	for _, mode := range []struct {
		name string
		conf func(cfg *Config)
	}{
		{"contention-free", func(*Config) {}},
		{"nic-1GBps", func(cfg *Config) {
			cfg.Net = DefaultNet(n)
			cfg.Net.InjectBandwidth = 1e9
			cfg.Net.EjectBandwidth = 1e9
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var done float64
			for i := 0; i < b.N; i++ {
				cfg := Config{Ranks: n}
				mode.conf(&cfg)
				sim, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(func(e *Env) {
					defer e.Finalize()
					w := e.World()
					if e.Rank() == 0 {
						for r := 1; r < n; r++ {
							if _, err := w.Recv(AnySource, 0); err != nil {
								b.Error(err)
							}
						}
					} else {
						if err := w.SendN(0, 0, size); err != nil {
							b.Error(err)
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				done = res.PerRank[0].Seconds() * 1e6
			}
			b.ReportMetric(done, "incast-simµs")
		})
	}
}

// BenchmarkIntervalSweep regenerates the checkpoint-interval sweep (the
// figure-style extension of Table II): measured E2 across intervals vs
// Daly's analytic expected runtime, locating the optimum.
func BenchmarkIntervalSweep(b *testing.B) {
	var (
		out  *CampaignOutcome
		text string
	)
	for i := 0; i < b.N; i++ {
		var err error
		out, text, err = runBlock(context.Background(), RunSpec{Ranks: 64}, &IntervalSweepParams{Seeds: []int64{133, 134}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", text)
	b.ReportMetric(float64(out.Sweep.BestMeasured), "best-C")
	b.ReportMetric(out.Sweep.DalyOptimalIters, "daly-C")
}

// BenchmarkPowerVsInterval extends Table II into the power dimension (the
// paper's stated end goal): energy to solution across checkpoint
// intervals under failures.
func BenchmarkPowerVsInterval(b *testing.B) {
	for _, c := range []int{500, 125} {
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			var joules, e2 float64
			for i := 0; i < b.N; i++ {
				hc, err := HeatWorkloadFor(64)
				if err != nil {
					b.Fatal(err)
				}
				hc.ExchangeInterval = c
				hc.CheckpointInterval = c
				store := NewStore()
				camp := Campaign{
					Base:             Config{Ranks: 64, Store: store, CallOverhead: PaperCallOverhead},
					MTTF:             3000 * Second,
					Seed:             133,
					CheckpointPrefix: "heat",
					AppFor:           func(int) App { return RunHeat(hc) },
				}
				res, err := camp.Run()
				if err != nil {
					b.Fatal(err)
				}
				e2 = res.E2.Seconds()
				joules = res.Energy(PaperPower()).TotalJoules
			}
			b.ReportMetric(e2, "E2-simsec")
			b.ReportMetric(joules/1e6, "MJ")
		})
	}
}

// BenchmarkAblationIncremental compares full checkpoints against
// incremental (delta) checkpoints on a PFS where checkpoint I/O actually
// costs something — the incremental/differential checkpointing technique
// of the paper's related work. Each mode writes one full checkpoint and
// seven 10 % deltas (or eight fulls), 64 MB of state per rank.
func BenchmarkAblationIncremental(b *testing.B) {
	const stateBytes = 64 << 20
	for _, mode := range []struct {
		name        string
		incremental bool
	}{{"full-every-time", false}, {"10pct-deltas", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var ckptTime float64
			for i := 0; i < b.N; i++ {
				sim, err := New(Config{Ranks: 1, FSModel: PaperPFS()})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(func(e *Env) {
					defer e.Finalize()
					fs, err := NewCheckpointFS(e)
					if err != nil {
						b.Error(err)
						return
					}
					if err := fs.WriteSized("app", CheckpointMeta{Iteration: 1, Rank: 0}, stateBytes); err != nil {
						b.Error(err)
						return
					}
					for it := 2; it <= 8; it++ {
						if mode.incremental {
							err = fs.WriteSized("app", CheckpointMeta{Iteration: it, Rank: 0, Incremental: true, BaseIteration: it - 1}, stateBytes/10)
						} else {
							err = fs.WriteSized("app", CheckpointMeta{Iteration: it, Rank: 0}, stateBytes)
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				ckptTime = res.SimTime.Seconds()
			}
			b.ReportMetric(ckptTime, "ckpt-simsec")
		})
	}
}

// BenchmarkAblationProactive compares reactive checkpoint/restart against
// prediction-driven proactive checkpointing (the paper's related-work
// family: proactive migration/rejuvenation): a predictor firing 30 s
// before the failure lets the application checkpoint just in time,
// shrinking the lost work from up to a full interval to almost nothing.
func BenchmarkAblationProactive(b *testing.B) {
	for _, mode := range []struct {
		name string
		lead Duration
	}{{"reactive", 0}, {"predicted-30s", 30 * Second}} {
		b.Run(mode.name, func(b *testing.B) {
			var e2 float64
			for i := 0; i < b.N; i++ {
				hc, err := HeatWorkloadFor(64)
				if err != nil {
					b.Fatal(err)
				}
				hc.Iterations = 200
				hc.ExchangeInterval = 100
				hc.CheckpointInterval = 100
				lead := mode.lead
				camp := Campaign{
					Base:             Config{Ranks: 64, Failures: Schedule{{Rank: 9, At: Time(900 * Second)}}},
					CheckpointPrefix: "heat",
					AppFor: func(run int) App {
						h := hc
						if lead > 0 {
							// The predictor fires lead ahead of the one
							// failure, which only the first run meets.
							h.ProactiveTrigger = Never
							if run == 0 {
								h.ProactiveTrigger = Time(900*Second - lead)
							}
						}
						return RunHeat(h)
					},
				}
				res, err := camp.Run()
				if err != nil {
					b.Fatal(err)
				}
				e2 = res.E2.Seconds()
			}
			b.ReportMetric(e2, "E2-simsec")
		})
	}
}

// BenchmarkEngineParallel measures the conservative parallel engine: the
// same heat workload — with real stencil computation, so there is native
// work to overlap — executed with 1..8 partitions. Results are identical
// across worker counts (tested); wall time is what changes. On a
// single-core host this measures the window-synchronisation overhead; on
// multicore hosts it shows the speedup.
func BenchmarkEngineParallel(b *testing.B) {
	hc, err := HeatWorkloadFor(512)
	if err != nil {
		b.Fatal(err)
	}
	hc.Iterations = 50
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 25
	hc.RealCompute = true
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := New(Config{Ranks: 512, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(RunHeat(hc)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineEvents measures the raw discrete-event core: simulated
// point-to-point messages per wall second through the full MPI stack.
func BenchmarkEngineEvents(b *testing.B) {
	const msgsPerRun = 2000
	for i := 0; i < b.N; i++ {
		sim, err := New(Config{Ranks: 2})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(func(e *Env) {
			defer e.Finalize()
			w := e.World()
			peer := 1 - e.Rank()
			for m := 0; m < msgsPerRun; m++ {
				if e.Rank() == 0 {
					if err := w.SendN(peer, 0, 8); err != nil {
						b.Error(err)
					}
					if _, err := w.Recv(peer, 1); err != nil {
						b.Error(err)
					}
				} else {
					if _, err := w.Recv(peer, 0); err != nil {
						b.Error(err)
					}
					if err := w.SendN(peer, 1, 8); err != nil {
						b.Error(err)
					}
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2*msgsPerRun*b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkTopologyHops measures the network model's routing arithmetic
// (it sits on every message's critical path).
func BenchmarkTopologyHops(b *testing.B) {
	tor := topology.PaperTorus()
	n := tor.Nodes()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += tor.Hops(i%n, (i*2654435761)%n)
	}
	if sum < 0 {
		b.Fatal("unreachable")
	}
}
