package regalloc

import (
	"fmt"
	"sort"

	"clustersched/internal/sched"
)

// Rotating is a rotating-register-file allocation, the hardware
// alternative to modulo variable expansion (Cydra 5, IA-64): each
// cluster's file rotates its base by one register per kernel
// iteration, so a value bound to logical register L is physically in
// (L + i) mod R during iteration i and successive instances never
// collide without any kernel unrolling.
type Rotating struct {
	// RegsPerCluster is the rotating file size per cluster.
	RegsPerCluster []int
	logical        map[vcKey]int
	maxSpan        int
}

type vcKey struct {
	value   int
	cluster int
}

// Logical returns value's logical register in cluster's file.
func (r *Rotating) Logical(value, cluster int) (int, bool) {
	l, ok := r.logical[vcKey{value: value, cluster: cluster}]
	return l, ok
}

// MaxSpan returns the largest number of iterations any single value
// stays live (the MVE factor equivalent), useful for sizing
// simulations.
func (r *Rotating) MaxSpan() int {
	if r.maxSpan < 1 {
		return 1
	}
	return r.maxSpan
}

// TotalRegisters sums the rotating files.
func (r *Rotating) TotalRegisters() int {
	t := 0
	for _, n := range r.RegsPerCluster {
		t += n
	}
	return t
}

// AllocateRotating assigns logical rotating registers to every value
// lifetime. Two lifetimes a and b of one cluster collide when some
// instances i of a and j of b overlap in time and land on the same
// physical register, i.e. L(b) ≡ L(a) - (j - i) (mod R) with
// [startA, endA) ∩ [startB + (j-i)·II, endB + (j-i)·II) non-empty.
// The allocator forbids exactly those residues and first-fits logical
// numbers, growing R (and restarting the cluster) when a value cannot
// be placed — R starts at the larger of the cluster's lifetime-sum
// lower bound and its longest value's span.
func AllocateRotating(in sched.Input, s *sched.Schedule) *Rotating {
	rot := &Rotating{
		RegsPerCluster: make([]int, in.Machine.NumClusters()),
		logical:        map[vcKey]int{},
	}
	byCluster := make([][]Lifetime, in.Machine.NumClusters())
	for _, l := range Lifetimes(in, s) {
		byCluster[l.Cluster] = append(byCluster[l.Cluster], l)
		if span := (l.Len + s.II - 1) / s.II; span > rot.maxSpan {
			rot.maxSpan = span
		}
	}
	for cl, lifetimes := range byCluster {
		if len(lifetimes) == 0 {
			continue
		}
		sort.Slice(lifetimes, func(i, j int) bool {
			a, b := lifetimes[i], lifetimes[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			return a.Value < b.Value
		})
		// Lower bounds: the lifetime-sum bound and the longest span of a
		// value in this cluster's file (another cluster's long value
		// says nothing about this file).
		sum, span := 0, 0
		for _, l := range lifetimes {
			sum += l.Len
			if sp := (l.Len + s.II - 1) / s.II; sp > span {
				span = sp
			}
		}
		r := (sum + s.II - 1) / s.II
		if r < span {
			r = span
		}
		if r < 1 {
			r = 1
		}
		for {
			assignment, ok := tryRotating(lifetimes, r, s.II)
			if ok {
				rot.RegsPerCluster[cl] = r
				for i, l := range lifetimes {
					rot.logical[vcKey{value: l.Value, cluster: cl}] = assignment[i]
				}
				break
			}
			r++
		}
	}
	return rot
}

// tryRotating first-fits logical registers at file size r.
func tryRotating(lifetimes []Lifetime, r, ii int) ([]int, bool) {
	assignment := make([]int, len(lifetimes))
	for i, b := range lifetimes {
		// A value overlapping its own later instances needs the file
		// to out-rotate it.
		if (b.Len+ii-1)/ii > r {
			return nil, false
		}
		forbidden := make([]bool, r)
		for j := 0; j < i; j++ {
			a := lifetimes[j]
			for _, delta := range overlapDeltas(a, b, ii, r) {
				res := ((assignment[j]-delta)%r + r) % r
				forbidden[res] = true
			}
		}
		placed := false
		for l := 0; l < r && !placed; l++ {
			if !forbidden[l] {
				assignment[i] = l
				placed = true
			}
		}
		if !placed {
			return nil, false
		}
	}
	return assignment, true
}

// overlapDeltas lists the instance offsets δ = j - i at which instance
// i of a and instance j of b overlap in time.
func overlapDeltas(a, b Lifetime, ii, r int) []int {
	var out []int
	// Overlap: startA < endB + δ·II and startB + δ·II < endA.
	// δ > (startA - endB)/II and δ < (endA - startB)/II.
	lo := floorDiv(a.Start-(b.Start+b.Len), ii) + 1
	hi := ceilDivInt(a.Start+a.Len-b.Start, ii) - 1
	for d := lo; d <= hi; d++ {
		out = append(out, d)
	}
	return out
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDivInt(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// Validate re-checks the rotating allocation pair by pair.
//
//schedvet:test-api the pair-by-pair re-check the rotating allocator's tests run
func (r *Rotating) Validate(in sched.Input, s *sched.Schedule) error {
	byCluster := make([][]Lifetime, in.Machine.NumClusters())
	for _, l := range Lifetimes(in, s) {
		byCluster[l.Cluster] = append(byCluster[l.Cluster], l)
	}
	for cl, lifetimes := range byCluster {
		size := r.RegsPerCluster[cl]
		for _, l := range lifetimes {
			if _, ok := r.Logical(l.Value, cl); !ok {
				return fmt.Errorf("regalloc: value %d has no logical register in cluster %d", l.Value, cl)
			}
			if (l.Len+s.II-1)/s.II > size {
				return fmt.Errorf("regalloc: value %d outlives the rotation of cluster %d (%d regs)", l.Value, cl, size)
			}
		}
		for i := 0; i < len(lifetimes); i++ {
			for j := i + 1; j < len(lifetimes); j++ {
				a, b := lifetimes[i], lifetimes[j]
				la, _ := r.Logical(a.Value, cl)
				lb, _ := r.Logical(b.Value, cl)
				for _, delta := range overlapDeltas(a, b, s.II, size) {
					if ((lb-(la-delta))%size+size)%size == 0 {
						return fmt.Errorf("regalloc: cluster %d: values %d and %d collide at instance offset %d",
							cl, a.Value, b.Value, delta)
					}
				}
			}
		}
	}
	return nil
}
