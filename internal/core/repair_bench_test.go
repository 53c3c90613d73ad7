package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"manirank/internal/aggregate"
	"manirank/internal/core"
	"manirank/internal/mallows"
	"manirank/internal/unfairgen"
)

// BenchmarkMakeMRFairLargeRepair times Make-MR-Fair's impactful-swap repair
// of a Borda consensus over 100 Plackett-Luce rankings of a calibrated
// unfair binary table, at n up to 20000 (skipped under -short). Setup is
// excluded; the swap count is reported per repair.
func BenchmarkMakeMRFairLargeRepair(b *testing.B) {
	for _, n := range []int{1000, 10000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10000 {
				b.Skip("n=20000 skipped under -short")
			}
			tab, err := unfairgen.BinaryTable(n)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			modal, err := unfairgen.CalibratedBinaryModal(tab, 0.44, 0.31, rng)
			if err != nil {
				b.Fatal(err)
			}
			p := mallows.MustNewPlackettLuce(modal, 0.6).SampleProfile(100, rng)
			targets := core.Targets(tab, 0.33)
			borda, err := aggregate.Borda(p)
			if err != nil {
				b.Fatal(err)
			}
			var swaps int
			for b.Loop() {
				if _, swaps, err = core.MakeMRFairWithPolicy(borda, targets, core.PolicyImpactful); err != nil {
					b.Fatalf("n=%d: %v", n, err)
				}
			}
			b.ReportMetric(float64(swaps), "swaps/op")
		})
	}
}
