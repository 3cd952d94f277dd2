// Parametric LEC optimization ([INSS92] + §3.2/§3.4): the paper proposes
// precomputing "the best expected plan under a number of possible
// distributions (ones that give good coverage of what we expect to
// encounter at run-time)" and storing these expected plans for query
// execution time. In the service API this is exactly what Prepare does:
// a handle configured with anticipated memory laws precomputes one
// [INSS92]-style plan set per drift factor for every prepared statement,
// and Prepared.Select answers start-up-time laws — including ones far off
// the grid — without re-running the optimizer's plan-space search.
//
// Run with: go run ./examples/parametric
package main

import (
	"fmt"
	"log"

	"lecopt"

	"lecopt/internal/experiments"
)

func main() {
	cat, _, err := experiments.Example11()
	if err != nil {
		log.Fatal(err)
	}

	// Compile time: anticipate bimodal memory laws over a grid of
	// contention probabilities; Prepare precomputes one LEC plan per law.
	grid := []float64{0, 0.25, 0.5, 0.75, 1}
	laws, err := lecopt.CoverageGrid(700, 2000, grid)
	if err != nil {
		log.Fatal(err)
	}
	opt := lecopt.New(cat,
		lecopt.WithPlanSpace(experiments.Example11Opts()),
		lecopt.WithAnticipatedLaws(laws...),
	)
	prep, err := opt.Prepare("SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k")
	if err != nil {
		log.Fatal(err)
	}
	entries := prep.Entries()
	distinct := map[string]bool{}
	for _, e := range entries {
		distinct[e.Plan.Signature()] = true
	}
	fmt.Printf("prepared %q\n", prep.SQL())
	fmt.Printf("precomputed %d laws -> %d distinct plans\n\n", len(entries), len(distinct))
	for _, e := range entries {
		fmt.Printf("  anticipated %s -> %s (EC %.6g)\n", e.Law, e.Plan.Signature(), e.EC)
	}

	// Start-up time: the observed law differs from every anticipated one.
	fmt.Println("\nstart-up-time laws:")
	for _, p := range []float64{0.001, 0.1, 0.6} {
		actual, err := lecopt.Bimodal(700, 2000, p)
		if err != nil {
			log.Fatal(err)
		}
		// Constant-time variant: nearest anticipated law.
		near, err := prep.Nearest(actual)
		if err != nil {
			log.Fatal(err)
		}
		// Candidate re-costing variant: exact over the cached plans.
		best, err := prep.Select(actual)
		if err != nil {
			log.Fatal(err)
		}
		// Reference: full optimization from scratch (through the handle's
		// plan cache).
		full, err := prep.Optimize(lecopt.Env{Mem: actual}, lecopt.AlgC)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Pr(700)=%.3f  nearest->%s  select->%s (EC %.6g)  full opt EC %.6g  regret %.2g%%\n",
			p, near.Plan.Signature(), best.Plan.Signature(), best.EC, full.EC, 100*(best.EC/full.EC-1))
	}
}
