// Tieredio: the checkpoint-I/O cost ablation — what the paper's zero-cost
// file-system assumption hides, and how much of it a multi-tier storage
// hierarchy buys back.
//
//	go run ./examples/tieredio
//
// The paper's Table II charges nothing for writing a checkpoint: the 16³
// points per rank are ~32 KB, invisible at any bandwidth. At production
// checkpoint sizes the picture changes. This example reruns the Table II
// sweep four ways over the same workload and the same failure sequences:
//
//   - free: the paper's zero-cost assumption (the reference);
//   - flat-pfs: every rank writes 256 MiB straight to a shared parallel
//     file system whose aggregate bandwidth the ranks must split;
//   - tiered: an SCR-style hierarchy — the rank commits to node-local
//     memory at memory speed and the copy drains asynchronously through a
//     burst buffer to the PFS, overlapping compute. A failure mid-drain
//     loses the volatile origin; the restart falls back to the deepest
//     tier whose copy completed (the buddy-copy failure mode);
//   - tiered-incr: the hierarchy plus incremental checkpoints — between
//     full checkpoints each cadence point writes only a quarter-size
//     delta, and every fourth checkpoint is full, bounding the restore
//     chain.
//
// The arms differ only in where checkpoint bytes go, so the "recovered
// fraction" at the bottom is a clean co-design number: how much of the
// flat-PFS overhead each storage architecture gives back.
package main

import (
	"context"
	"fmt"
	"log"

	"xsim"
)

func main() {
	spec := xsim.CampaignSpec{
		Kind:  xsim.KindIOAblation,
		Ranks: 256,
		Seed:  133,
		IOAblation: &xsim.IOAblationParams{
			Iterations:  200,
			Intervals:   []int{50, 25},
			MTTFSeconds: []float64{500},
		},
	}
	fmt.Printf("checkpoint-I/O ablation: %d ranks, %d iterations, %d MiB per rank\n",
		spec.Ranks, spec.IOAblation.Iterations, 256)
	fmt.Printf("(node-local memory -> burst buffer -> shared PFS; seed %d)\n\n", spec.Seed)

	_, table, err := spec.RunRendered(context.Background(), xsim.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table)

	fmt.Println()
	fmt.Println("Reading the table: every arm faces the identical failure sequence, so")
	fmt.Println("the E2 columns are directly comparable. The flat PFS pays the full")
	fmt.Println("write on the critical path at every checkpoint; the tiered arms pay")
	fmt.Println("only the node-local commit and drain in the background, surviving")
	fmt.Println("failures through whichever deeper copy completed in time.")
}
