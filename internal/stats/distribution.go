package stats

import (
	"math"
)

// CategoricalDist is a frequency distribution over named categories. It is the
// data type behind the paper's pie charts (Figures 2 and 4): each category is
// a research direction and each count is a number of tools or votes.
//
// The zero value is an empty, ready-to-use distribution.
type CategoricalDist struct {
	counts map[string]int
	order  []string // first-observation order, used for stable iteration
}

// NewCategoricalDist returns a distribution with the given category order
// pre-registered (all counts zero). Registering the order up front keeps
// renderings aligned with the paper even for zero-count categories.
func NewCategoricalDist(categories ...string) *CategoricalDist {
	d := &CategoricalDist{counts: make(map[string]int, len(categories))}
	for _, c := range categories {
		d.register(c)
	}
	return d
}

func (d *CategoricalDist) register(category string) {
	if d.counts == nil {
		d.counts = make(map[string]int)
	}
	if _, ok := d.counts[category]; !ok {
		d.counts[category] = 0
		d.order = append(d.order, category)
	}
}

// Add increments category by n (n may be negative but the count is clamped
// at zero). Unknown categories are registered on first use.
func (d *CategoricalDist) Add(category string, n int) {
	d.register(category)
	c := d.counts[category] + n
	if c < 0 {
		c = 0
	}
	d.counts[category] = c
}

// Observe increments category by one.
func (d *CategoricalDist) Observe(category string) { d.Add(category, 1) }

// Count returns the count for category (zero for unknown categories).
func (d *CategoricalDist) Count(category string) int { return d.counts[category] }

// Total returns the sum of all counts.
func (d *CategoricalDist) Total() int {
	total := 0
	for _, c := range d.counts {
		total += c
	}
	return total
}

// Share returns category's fraction of the total, or 0 if the distribution
// is empty.
func (d *CategoricalDist) Share(category string) float64 {
	total := d.Total()
	if total == 0 {
		return 0
	}
	return float64(d.counts[category]) / float64(total)
}

// ArgMax returns the category with the highest count. Ties resolve to the
// earliest-registered category. It returns ErrEmpty when no categories exist.
func (d *CategoricalDist) ArgMax() (string, error) {
	if len(d.order) == 0 {
		return "", ErrEmpty
	}
	best := d.order[0]
	for _, c := range d.order[1:] {
		if d.counts[c] > d.counts[best] {
			best = c
		}
	}
	return best, nil
}

// ArgMin returns the category with the lowest count (ties to earliest).
func (d *CategoricalDist) ArgMin() (string, error) {
	if len(d.order) == 0 {
		return "", ErrEmpty
	}
	best := d.order[0]
	for _, c := range d.order[1:] {
		if d.counts[c] < d.counts[best] {
			best = c
		}
	}
	return best, nil
}

// Entropy returns the Shannon entropy (bits) of the normalized distribution.
// A perfectly balanced distribution over k categories has entropy log2(k);
// the paper's Q2 ("effort is quite balanced") corresponds to entropy close
// to that maximum.
func (d *CategoricalDist) Entropy() float64 {
	total := d.Total()
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range d.counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// Balance returns entropy normalized to [0,1] by the maximum achievable
// entropy over the registered categories (1 = perfectly balanced).
func (d *CategoricalDist) Balance() float64 {
	k := len(d.order)
	if k <= 1 {
		return 1
	}
	return d.Entropy() / math.Log2(float64(k))
}

// Imbalance returns max share / min nonzero-capable share ratio measured as
// (max count) / (min count), with min clamped to 1 to stay finite. The
// paper's Q3 notes an 11:1 spread between orchestration and energy votes.
func (d *CategoricalDist) Imbalance() float64 {
	if len(d.order) == 0 {
		return 1
	}
	maxC, minC := 0, math.MaxInt
	for _, c := range d.counts {
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	if minC < 1 {
		minC = 1
	}
	if maxC < 1 {
		return 1
	}
	return float64(maxC) / float64(minC)
}

// ChiSquareUniform returns the chi-square statistic of the distribution
// against the uniform distribution over its registered categories, along with
// the degrees of freedom. Large values indicate imbalance (used to contrast
// Fig. 2's balanced tool spread against Fig. 4's skewed vote spread).
func (d *CategoricalDist) ChiSquareUniform() (statistic float64, dof int) {
	k := len(d.order)
	total := d.Total()
	if k == 0 || total == 0 {
		return 0, 0
	}
	expected := float64(total) / float64(k)
	var chi2 float64
	for _, c := range d.order {
		diff := float64(d.counts[c]) - expected
		chi2 += diff * diff / expected
	}
	return chi2, k - 1
}

// IntHistogram is a frequency distribution over small integer values, the
// data type behind the paper's Figure 3 (number of research directions
// covered per institution). The zero value is ready to use.
type IntHistogram struct {
	counts map[int]int
}

// Observe increments the bucket for v.
func (h *IntHistogram) Observe(v int) {
	if h.counts == nil {
		h.counts = make(map[int]int)
	}
	h.counts[v]++
}

// Count returns the number of observations with value v.
func (h *IntHistogram) Count(v int) int { return h.counts[v] }

// Buckets returns (value, count) pairs for the closed range [lo, hi],
// including zero-count buckets, which is how Figure 3 draws its x axis 1..5.
func (h *IntHistogram) Buckets(lo, hi int) (values, counts []int) {
	for v := lo; v <= hi; v++ {
		values = append(values, v)
		counts = append(counts, h.counts[v])
	}
	return values, counts
}
