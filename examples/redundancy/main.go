// Redundancy: redMPI-style r-way modular redundancy — detecting silent
// data corruption online by majority vote, and surviving process failures
// by failing over to surviving replicas, built on the toolkit's simulated
// MPI layer.
//
//	go run ./examples/redundancy
//
// Twenty-four physical ranks run an eight-rank logical computation three
// times over: every copy reaches every receiver replica, which votes.
// Mid-run a bit flips in one replica's data AND one process of a
// different replica sphere is killed outright: the vote identifies the
// corrupted replica and hands every receiver the majority data, while the
// process failure is absorbed by the two surviving replicas of its logical
// rank — the logical computation completes despite both faults.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"os"

	"xsim"
)

func main() {
	const (
		logical = 8
		degree  = 3
		iters   = 4
	)

	sim, err := xsim.New(xsim.Config{
		Ranks: degree * logical,
		// Kill logical rank 5's replica 1 (world rank 13) mid-run.
		Failures: xsim.Schedule{{Rank: 5 + logical, At: xsim.Time(2 * xsim.Second)}},
	})
	if err != nil {
		log.Fatal(err)
	}

	detections := make([]string, degree*logical)
	res, err := sim.Run(func(env *xsim.Env) {
		defer env.Finalize()
		rep, err := xsim.WrapReplicated(env, degree)
		if err != nil {
			log.Fatal(err)
		}

		// Each logical rank passes a vector around the logical ring;
		// logical rank 3's replica 2 suffers a bit flip before sending.
		data := []float64{1, 2, 4, 8}
		if rep.Logical() == 3 && rep.Replica() == 2 {
			old, bad := xsim.FlipFloat64(data, 2, 61)
			env.Logf("soft error injected: %v -> %v", old, bad)
		}

		next := (rep.Logical() + 1) % rep.Size()
		prev := (rep.Logical() - 1 + rep.Size()) % rep.Size()
		for i := 0; i < iters; i++ {
			env.Elapse(xsim.Second)
			if err := rep.Send(next, 0, encode(data)); err != nil {
				log.Fatalf("send: %v", err)
			}
			msg, err := rep.Recv(prev, 0)
			var sdc *xsim.SDCError
			if errors.As(err, &sdc) {
				// The vote both names the corrupted replica and delivers
				// the majority data in msg — the computation continues on
				// clean values.
				detections[env.Rank()] = fmt.Sprintf(
					"logical %d replica %d: SDC in message from logical %d, corrupt replica(s) %v, corrected by majority",
					rep.Logical(), rep.Replica(), sdc.LogicalSrc, sdc.Corrupt)
			} else if err != nil {
				log.Fatalf("rank %d recv: %v", env.Rank(), err)
			}
			msg.Release()
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated time %v: %d completed, %d failed (absorbed by failover)\n\n",
		res.SimTime, res.Completed, res.Failed)
	// Logical rank 4 receives from the corrupted logical rank 3: every
	// one of its replicas must vote the corruption out.
	found := 0
	for rank, d := range detections {
		if d != "" {
			fmt.Println(d)
			if rank%logical == 4 {
				found++
			}
		}
	}
	switch {
	case found != degree:
		fmt.Printf("%d of logical rank 4's %d replicas detected the corruption (unexpected!)\n", found, degree)
		os.Exit(1)
	case res.Failed != 1 || res.Aborted != 0:
		fmt.Println("process failure was not absorbed (unexpected!)")
		os.Exit(1)
	default:
		fmt.Printf("\n%d receiver replica(s) voted out the corruption, and logical rank 5\n", found)
		fmt.Println("survived the death of its replica 1 — r-way redundancy handled both faults")
	}
}

func encode(vals []float64) []byte {
	buf := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}
