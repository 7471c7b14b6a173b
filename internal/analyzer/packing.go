package analyzer

import "sort"

// packOptimal solves the view-packing problem exactly: choose the subset
// of candidates maximizing total utility with total storage at most
// budget. This is the 0/1-knapsack core of the companion subexpression-
// packing work the paper defers to (§5.2); greedy density packing (the
// PackStorageBudget strategy) is its fast approximation.
//
// The solver is branch-and-bound with the fractional-relaxation upper
// bound, exploring density order. View counts after the admin filters are
// small (tens), so exact search is cheap; a safety cap restricts the
// search to the highest-utility candidates for adversarially large pools.
const packOptimalMaxCandidates = 48

func packOptimal(pool []Candidate, budget int64) []Candidate {
	if budget <= 0 || len(pool) == 0 {
		return nil
	}
	// Work in density order; skip candidates that can never fit. The cap is
	// applied only AFTER the density sort: capping the incoming pool (which
	// arrives in utility order, or in whatever order a caller built it)
	// would truncate to an arbitrary prefix and silently drop the dense
	// candidates an optimal packing is made of.
	items := make([]Candidate, 0, len(pool))
	for _, c := range pool {
		if int64(c.AvgBytes) <= budget {
			items = append(items, c)
		}
	}
	sort.Slice(items, func(i, j int) bool { return denseBefore(items[i], items[j]) })
	if len(items) > packOptimalMaxCandidates {
		items = items[:packOptimalMaxCandidates]
	}

	best := make([]bool, len(items))
	cur := make([]bool, len(items))
	var bestUtil float64
	var rec func(i int, usedBytes int64, util float64)
	rec = func(i int, usedBytes int64, util float64) {
		if util > bestUtil {
			bestUtil = util
			copy(best, cur)
		}
		if i >= len(items) {
			return
		}
		// Fractional upper bound: fill the remaining budget greedily by
		// density, allowing a fractional last item.
		if util+fractionalBound(items[i:], budget-usedBytes) <= bestUtil {
			return
		}
		// Branch: take item i if it fits.
		if usedBytes+int64(items[i].AvgBytes) <= budget {
			cur[i] = true
			rec(i+1, usedBytes+int64(items[i].AvgBytes), util+items[i].Utility)
			cur[i] = false
		}
		// Branch: skip item i.
		rec(i+1, usedBytes, util)
	}
	rec(0, 0, 0)

	var out []Candidate
	for i, take := range best {
		if take {
			out = append(out, items[i])
		}
	}
	// Present in utility order like the other strategies.
	sort.Slice(out, func(i, j int) bool { return utilityBefore(out[i], out[j]) })
	return out
}

// fractionalBound is the LP-relaxation optimum over items with the given
// remaining budget; items must already be density-sorted.
func fractionalBound(items []Candidate, budget int64) float64 {
	var util float64
	for _, c := range items {
		b := int64(c.AvgBytes)
		if b <= 0 {
			util += c.Utility
			continue
		}
		if b <= budget {
			util += c.Utility
			budget -= b
			continue
		}
		util += c.Utility * float64(budget) / float64(b)
		break
	}
	return util
}
