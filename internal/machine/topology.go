package machine

import "sync"

// Topology is the precomputed link fabric of one configuration: the
// link index and shortest cluster path for every cluster pair.
// Consumers that previously re-ran the BFS of Config.Path per
// construction (one cluster-assignment run builds a full pair table)
// share one Topology per Config instead.
//
// All returned slices are owned by the Topology and must be treated as
// read-only.
type Topology struct {
	nc      int
	pathTab [][]int // [a*nc+b] -> Config.Path(a, b)
	linkTab []int   // [a*nc+b] -> link index, or -1
}

// Path returns the precomputed Config.Path(a, b) result.
func (t *Topology) Path(a, b int) []int { return t.pathTab[a*t.nc+b] }

// LinkBetween returns the precomputed Config.LinkBetween(a, b) result.
func (t *Topology) LinkBetween(a, b int) int { return t.linkTab[a*t.nc+b] }

// topoCache memoizes TopologyOf per Config. The cache is bounded: paths
// that mint throwaway configurations (Unified() per run, machine
// sweeps) must not pin memory forever, so when the cache fills up it is
// dropped wholesale and rebuilt on demand.
var topoCache struct {
	sync.Mutex
	m map[*Config]*Topology
}

const topoCacheLimit = 128

// TopologyOf returns the Topology of m, derived on first use and cached
// by configuration identity. The configuration must not be mutated
// after the first call (the same contract the reservation tables have
// always had between ResetII calls).
func TopologyOf(m *Config) *Topology {
	topoCache.Lock()
	if t, ok := topoCache.m[m]; ok {
		topoCache.Unlock()
		return t
	}
	topoCache.Unlock()

	nc := len(m.Clusters)
	t := &Topology{
		nc:      nc,
		pathTab: make([][]int, nc*nc),
		linkTab: make([]int, nc*nc),
	}
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			t.pathTab[i*nc+j] = m.Path(i, j)
			t.linkTab[i*nc+j] = m.LinkBetween(i, j)
		}
	}

	topoCache.Lock()
	if len(topoCache.m) >= topoCacheLimit {
		topoCache.m = nil
	}
	if topoCache.m == nil {
		topoCache.m = make(map[*Config]*Topology, topoCacheLimit)
	}
	topoCache.m[m] = t
	topoCache.Unlock()
	return t
}
