package deform

import (
	"encoding/binary"
	"sync"

	"surfdeformer/internal/code"
	"surfdeformer/internal/lattice"
	"surfdeformer/internal/obs"
)

// Process-wide counters of the candidate-distance memo.
var (
	obsMemoHits   = obs.Default().Counter("deform.distance_memo.hits")
	obsMemoMisses = obs.Default().Counter("deform.distance_memo.misses")
	obsMemoClears = obs.Default().Counter("deform.distance_memo.clears")
)

// distanceMemoLimit bounds the memo's entry count. An entry is a short key,
// two ints and an error, so a full memo stays under a megabyte, and it
// holds the few thousand deformed layouts a d=3 scan keeps revisiting.
const distanceMemoLimit = 4096

// distanceEntry is what the memo remembers of one spec: Build's X/Z
// distances, or Build's error.
type distanceEntry struct {
	dx, dz int
	err    error
}

// distanceMemo maps a spec's canonical key (Spec.memoKey) to its entry. It
// is shared by every unit, trajectory and worker of the process: the same
// deformed layouts recur across trajectories far more often than within
// one. When it grows past distanceMemoLimit it is cleared wholesale, as
// sim.DEMCache is.
var distanceMemo = struct {
	mu      sync.Mutex
	entries map[string]distanceEntry
}{entries: make(map[string]distanceEntry)}

// Distances returns the X and Z distances of the code Build would compile
// from the spec, or Build's error. Candidate judgments — enlargement
// trials, boundary-fix balancing, surgery merges — read only these two
// numbers, so they are served from a process-wide memo keyed by the spec's
// content and the spec is compiled only on a miss.
func (s *Spec) Distances() (dx, dz int, err error) {
	dx, dz, _, err = s.distances()
	return dx, dz, err
}

// distances is Distances that also hands back the code it compiled on a
// memo miss (nil on a hit or an error), so a caller that goes on to use the
// spec need not compile it a second time.
func (s *Spec) distances() (dx, dz int, c *code.Code, err error) {
	key := s.memoKey()
	distanceMemo.mu.Lock()
	e, ok := distanceMemo.entries[key]
	distanceMemo.mu.Unlock()
	if ok {
		obsMemoHits.Inc()
		return e.dx, e.dz, nil, e.err
	}
	obsMemoMisses.Inc()
	if c, err = s.Build(); err != nil {
		e = distanceEntry{err: err}
	} else {
		e = distanceEntry{dx: c.DistanceX(), dz: c.DistanceZ()}
	}
	distanceMemo.mu.Lock()
	if _, dup := distanceMemo.entries[key]; !dup && len(distanceMemo.entries) >= distanceMemoLimit {
		distanceMemo.entries = make(map[string]distanceEntry)
		obsMemoClears.Inc()
	}
	distanceMemo.entries[key] = e
	distanceMemo.mu.Unlock()
	return e.dx, e.dz, c, e.err
}

// memoKey serializes every field of the spec canonically: the geometry,
// then the removed data sites, the removed syndrome sites and the boundary
// fixes, each sorted and prefixed by its count. A false entry in a removal
// map keys like an absent one, as Build reads it.
func (s *Spec) memoKey() string {
	buf := make([]byte, 0, 64)
	buf = binary.AppendVarint(buf, int64(s.Origin.Row))
	buf = binary.AppendVarint(buf, int64(s.Origin.Col))
	buf = binary.AppendVarint(buf, int64(s.DX))
	buf = binary.AppendVarint(buf, int64(s.DZ))
	buf = appendSites(buf, s.RemovedData)
	buf = appendSites(buf, s.RemovedSyndrome)
	fixes := make([]lattice.Coord, 0, len(s.Fixes))
	for q := range s.Fixes {
		fixes = append(fixes, q)
	}
	lattice.SortCoords(fixes)
	buf = binary.AppendUvarint(buf, uint64(len(fixes)))
	for _, q := range fixes {
		buf = appendCoord(buf, q)
		buf = append(buf, byte(s.Fixes[q]))
	}
	return string(buf)
}

// appendSites appends the count and the sorted coordinates of a removal
// map's true entries.
func appendSites(buf []byte, set map[lattice.Coord]bool) []byte {
	sites := make([]lattice.Coord, 0, len(set))
	for q, removed := range set {
		if removed {
			sites = append(sites, q)
		}
	}
	lattice.SortCoords(sites)
	buf = binary.AppendUvarint(buf, uint64(len(sites)))
	for _, q := range sites {
		buf = appendCoord(buf, q)
	}
	return buf
}

func appendCoord(buf []byte, q lattice.Coord) []byte {
	buf = binary.AppendVarint(buf, int64(q.Row))
	return binary.AppendVarint(buf, int64(q.Col))
}
