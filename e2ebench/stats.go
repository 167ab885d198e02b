package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"comtainer/internal/core/model"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 1) of xs by the
// nearest-rank rule. It refuses when fewer than minTail samples lie
// beyond the percentile, because such a tail is a handful of outliers
// rather than a measured percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v out of (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 || n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0, so a counter that never ran
// reads zero instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// action is one distinct command of a rebuild DAG.
type action struct {
	deps []int // indices of actions that must finish first
}

// rebuildDAG projects a build graph onto its distinct commands the way
// the rebuild executes them: nodes sharing a command sequence number
// are one action, and an action depends on every action producing one
// of its nodes' inputs.
func rebuildDAG(g *model.BuildGraph) ([]action, error) {
	index := map[int]int{} // command seq -> action index
	var seqs []int
	for _, n := range g.Nodes {
		if n.Cmd != nil {
			if _, ok := index[n.Cmd.Seq]; !ok {
				index[n.Cmd.Seq] = -1
				seqs = append(seqs, n.Cmd.Seq)
			}
		}
	}
	sort.Ints(seqs)
	for i, s := range seqs {
		index[s] = i
	}
	deps := make([]map[int]bool, len(seqs))
	for i := range deps {
		deps[i] = map[int]bool{}
	}
	for _, n := range g.Nodes {
		if n.Cmd == nil {
			continue
		}
		for _, id := range n.Deps {
			dep, ok := g.Node(id)
			if !ok {
				return nil, fmt.Errorf("node %s references missing node %d", n.Path, id)
			}
			if dep.Cmd != nil && dep.Cmd.Seq != n.Cmd.Seq {
				deps[index[n.Cmd.Seq]][index[dep.Cmd.Seq]] = true
			}
		}
	}
	out := make([]action, len(seqs))
	for i, ds := range deps {
		for d := range ds {
			out[i].deps = append(out[i].deps, d)
		}
		sort.Ints(out[i].deps)
	}
	return out, nil
}

// idealMakespan is the list-schedule makespan of the DAG on workers
// identical workers when every action costs cost and nothing else
// does: at each step every free worker takes the lowest-numbered ready
// action. It is the bound a farm of that size could reach if shipping
// an action to a worker were free.
func idealMakespan(dag []action, workers int, cost time.Duration) (time.Duration, error) {
	if workers < 1 {
		return 0, fmt.Errorf("ideal makespan needs at least one worker, got %d", workers)
	}
	finish := make([]time.Duration, len(dag))
	done := make([]bool, len(dag))
	free := make([]time.Duration, workers) // when each worker is next idle
	var makespan time.Duration
	for scheduled := 0; scheduled < len(dag); scheduled++ {
		// The earliest-idle worker takes the ready action that can
		// start soonest (lowest index on ties).
		w := 0
		for i := range free {
			if free[i] < free[w] {
				w = i
			}
		}
		best, bestStart := -1, time.Duration(0)
		for i, a := range dag {
			if done[i] {
				continue
			}
			start, ready := free[w], true
			for _, d := range a.deps {
				if !done[d] {
					ready = false
					break
				}
				if finish[d] > start {
					start = finish[d]
				}
			}
			if ready && (best < 0 || start < bestStart) {
				best, bestStart = i, start
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("rebuild DAG has a cycle")
		}
		done[best] = true
		finish[best] = bestStart + cost
		free[w] = finish[best]
		if finish[best] > makespan {
			makespan = finish[best]
		}
	}
	return makespan, nil
}
