// Command xsim-bench is the repository's benchmark: one harness, five
// workloads, end-to-end metrics with tracing off and per-layer metrics
// from a traced pass. See internal/bench/README.md.
package main

import (
	"os"

	"xsim/internal/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
