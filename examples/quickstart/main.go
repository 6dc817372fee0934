// Quickstart: train a lifetime predictor on one input of a workload,
// evaluate it on another (the paper's "true prediction"), and compare the
// lifetime-predicting arena allocator against plain first-fit.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	lifetime "repro"
)

func main() {
	// GAWK is the paper's success story: 99% of allocated bytes are
	// predictably short-lived, and the test input is the same awk
	// program run over different data.
	m := lifetime.ModelByName("gawk")

	train, err := lifetime.GenerateTrace(m, lifetime.TrainInput, 1, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	test, err := lifetime.GenerateTrace(m, lifetime.TestInput, 2, 0.05)
	if err != nil {
		log.Fatal(err)
	}

	// Train: every allocation site (call-chain x size) gets a lifetime
	// profile; sites whose objects all died within 32KB of allocation
	// become short-lived predictors.
	pred, err := lifetime.Train(train, lifetime.DefaultProfileConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d short-lived predictor sites\n", pred.NumSites())

	// Evaluate on the other input: sites map across runs by call-chain
	// and rounded size.
	ev, err := lifetime.Evaluate(test, pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("actual short-lived bytes:    %5.1f%%\n", ev.ActualShortPct())
	fmt.Printf("predicted short-lived bytes: %5.1f%% (error %.2f%%)\n",
		ev.PredictedShortPct(), ev.ErrorPct())

	// Simulate both allocators on the test input.
	ff, err := lifetime.Simulate(test, lifetime.NewFirstFitAllocator(), nil)
	if err != nil {
		log.Fatal(err)
	}
	ar, err := lifetime.Simulate(test, lifetime.NewArenaAllocator(), pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst-fit max heap:  %6d KB\n", ff.MaxHeap>>10)
	fmt.Printf("arena max heap:      %6d KB (%.1f%% of allocations bump-allocated)\n",
		ar.MaxHeap>>10, ar.ArenaAllocPct)

	ffCost := lifetime.CostFirstFit(ff.Counts)
	arCost := lifetime.CostArenaLen4(ar.Counts)
	fmt.Printf("\nmodeled instructions per alloc+free:\n")
	fmt.Printf("  first-fit:    %.0f\n", ffCost.Total())
	fmt.Printf("  arena (len4): %.0f\n", arCost.Total())
}
