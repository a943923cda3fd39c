package checkpoint

import (
	"testing"

	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
)

// BenchmarkCheckpointCycle is one rank's checkpoint path in the heat
// application, through the paper's tiered hierarchy, one row per step:
//
//   - full: a 1 MiB synthetic checkpoint written, then the delete of the
//     previous iteration's;
//   - incremental: the same round with a quarter-size delta on the previous
//     iteration (WriteSized with Meta.Incremental);
//   - restart-probe: the candidates probed newest first (ProbeValid), then
//     the restore of the one found (ChargeRestore).
//
// ci.sh gates its allocs/op, so a name formatted per file or a map entry
// per file that comes back fails the build.
func BenchmarkCheckpointCycle(b *testing.B) {
	cycle := func(b *testing.B, incremental bool) {
		withTieredEnv(b, fsmodel.NewStore(), fsmodel.PaperTieredFS(), func(e *mpi.Env) {
			fs, err := NewFS(e)
			if err != nil {
				b.Error(err)
				return
			}
			if err := fs.WriteSized("heat", Meta{}, 1<<20); err != nil {
				b.Error(err)
				return
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 1; it <= b.N; it++ {
				var err error
				if incremental {
					err = fs.WriteSized("heat", Meta{Iteration: it, Incremental: true, BaseIteration: it - 1}, 1<<18)
				} else {
					err = fs.WriteSized("heat", Meta{Iteration: it}, 1<<20)
				}
				if err != nil {
					b.Error(err)
					return
				}
				fs.Delete("heat", it-1, 0)
			}
			b.StopTimer()
		})
	}
	b.Run("full", func(b *testing.B) { cycle(b, false) })
	b.Run("incremental", func(b *testing.B) { cycle(b, true) })
	b.Run("restart-probe", func(b *testing.B) {
		withTieredEnv(b, fsmodel.NewStore(), fsmodel.PaperTieredFS(), func(e *mpi.Env) {
			fs, err := NewFS(e)
			if err != nil {
				b.Error(err)
				return
			}
			// A full checkpoint, a delta on it, and a newer candidate that
			// was never written: each probe misses once, then finds the
			// delta, whose restore reads the chain of two.
			candidates := []int{10, 20, 30}
			if err := fs.WriteSized("heat", Meta{Iteration: 10}, 1<<20); err != nil {
				b.Error(err)
				return
			}
			if err := fs.WriteSized("heat", Meta{Iteration: 20, Incremental: true, BaseIteration: 10}, 1<<18); err != nil {
				b.Error(err)
				return
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				found := -1
				for c := len(candidates) - 1; c >= 0 && found < 0; c-- {
					if fs.ProbeValid("heat", 0, candidates[c]) {
						found = candidates[c]
					}
				}
				if found != 20 {
					b.Errorf("newest valid checkpoint = %d, want 20", found)
					return
				}
				if err := fs.ChargeRestore("heat", 0, found); err != nil {
					b.Error(err)
					return
				}
			}
			b.StopTimer()
		})
	})
}
