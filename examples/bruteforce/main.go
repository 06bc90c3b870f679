// Brute-force evaluation (paper §V-D, §VII-A1, §VIII-B): Monte-Carlo
// measurement of attacker effort against a fixed permutation versus
// MAVR's re-randomize-on-failure policy, plus the analytic models and
// entropy figures for the real applications.
package main

import (
	"fmt"

	"mavr/internal/core"
	"mavr/internal/firmware"
)

func main() {
	fmt.Println("Monte-Carlo brute force (guess the permutation), 4000 trials each:")
	fmt.Println("  n   n!      fixed-layout mean (model (n!+1)/2)   MAVR mean (model n!)")
	for _, n := range []int{3, 4, 5} {
		fixed := core.SimulateBruteForceFixed(1, n, 4000, 0)
		rer := core.SimulateBruteForceRerandomized(1, n, 4000, 0)
		fmt.Printf("  %d  %4d        %8.1f (%8.1f)              %8.1f (%8.1f)\n",
			n, fixed.Permutations, fixed.MeanAttempts, fixed.ModelAttempts,
			rer.MeanAttempts, rer.ModelAttempts)
	}

	fmt.Println("\nScaled to the paper's applications (Table I symbol counts):")
	for _, spec := range firmware.Profiles() {
		fmt.Printf("  %-10s  %4d symbols  entropy %7.0f bits  expected attempts ~2^%.0f\n",
			spec.Name, spec.Functions, core.EntropyBits(spec.Functions),
			core.EntropyBits(spec.Functions))
	}
	fmt.Println("\nThe paper's §VIII-B figure: ArduRover's 800 symbols give")
	fmt.Printf("%.0f bits of permutation entropy (paper: 6567).\n", core.EntropyBits(800))
}
