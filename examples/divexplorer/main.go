// Divexplorer reproduces application 3.9: anomalous subgroup
// characterization of a classifier. A synthetic credit-scoring model is
// audited: DivExplorer mines the interpretable subgroups where its error
// rate diverges from the global rate, Shapley values attribute each
// subgroup's divergence to its individual conditions, and the aMLLibrary
// autoML loop selects a regression model for a performance-prediction side
// task (the planned integration).
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"
	"strings"

	"repro/internal/divexplorer"
	"repro/internal/rng"
)

func main() {
	gen := rng.New(99)

	// Synthetic audit set: the classifier is much worse on young
	// self-employed applicants, slightly worse on low-income ones.
	var data divexplorer.Dataset
	ages := []string{"young", "mid", "senior"}
	incomes := []string{"low", "mid", "high"}
	jobs := []string{"employed", "self-employed", "retired"}
	for i := 0; i < 6000; i++ {
		r := divexplorer.Row{Attrs: map[string]string{
			"age":    ages[gen.Intn(3)],
			"income": incomes[gen.Intn(3)],
			"job":    jobs[gen.Intn(3)],
		}}
		p := 0.08
		if r.Attrs["age"] == "young" && r.Attrs["job"] == "self-employed" {
			p = 0.45
		} else if r.Attrs["income"] == "low" {
			p = 0.16
		}
		r.Outcome = gen.Float64() < p // true = misclassified
		data.Rows = append(data.Rows, r)
	}
	fmt.Printf("Audit set: %d instances, global error rate %.1f%%\n\n", len(data.Rows), data.GlobalRate()*100)

	subgroups, err := divexplorer.Explore(&data, divexplorer.Config{MinSupport: 0.02, MaxLen: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mined %d frequent subgroups; most divergent:\n", len(subgroups))
	fmt.Printf("%-38s %8s %8s %10s\n", "subgroup", "support", "error", "divergence")
	for _, s := range divexplorer.TopDivergent(subgroups, 5, 1) {
		fmt.Printf("%-38s %7.1f%% %7.1f%% %+9.1f%%\n",
			s.Key(), s.SupportFrac*100, s.Rate*100, s.Divergence*100)
	}

	// Attribute the top conjunction's divergence to its conditions.
	top := divexplorer.TopDivergent(subgroups, 1, 2)
	if len(top) == 1 {
		phi, err := divexplorer.ShapleyValues(&data, top[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nShapley attribution for %q:\n", top[0].Key())
		items := make([]divexplorer.Item, 0, len(phi))
		for it := range phi {
			items = append(items, it)
		}
		slices.SortFunc(items, func(a, b divexplorer.Item) int {
			return cmp.Or(strings.Compare(a.Attr, b.Attr), strings.Compare(a.Value, b.Value))
		})
		for _, it := range items {
			fmt.Printf("  %-24s %+6.1f%%\n", it, phi[it]*100)
		}
	}

	// aMLLibrary side task: select a performance model predicting runtime
	// from input size (quadratic ground truth).
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		size := gen.Float64() * 10
		xs = append(xs, []float64{size})
		ys = append(ys, 0.5*size*size+2*size+3+gen.NormFloat64()*0.1)
	}
	model, err := divexplorer.SelectModel(xs, ys, divexplorer.DefaultGrid(), 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nautoML model selection: degree %d, lambda %g, CV-RMSE %.3f\n",
		model.Candidate.Degree, model.Candidate.Lambda, model.CVRMSE)
	fmt.Printf("predicted runtime for size 8.0: %.2f (ground truth %.2f)\n",
		model.Predict([]float64{8}), 0.5*64+16+3)
}
