package checkpoint

import (
	"testing"

	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
)

// BenchmarkCheckpointCycle is one rank's checkpoint round in the heat
// application: a 1 MiB synthetic checkpoint written through the paper's
// tiered hierarchy, then the delete of the previous iteration's. ci.sh
// gates its allocs/op, so a name formatted per file or a map entry per
// file that comes back fails the build.
func BenchmarkCheckpointCycle(b *testing.B) {
	withTieredEnv(b, fsmodel.NewStore(), fsmodel.PaperTieredFS(), func(e *mpi.Env) {
		fs, err := NewFS(e)
		if err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		for it := 1; it <= b.N; it++ {
			if err := fs.WriteSized("heat", Meta{Iteration: it}, 1<<20); err != nil {
				b.Error(err)
				return
			}
			fs.Delete("heat", it-1, 0)
		}
		b.StopTimer()
	})
}
