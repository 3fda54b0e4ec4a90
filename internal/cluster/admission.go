package cluster

import "runtime"

// heavyScore classifies an instance heavy when vertices × density
// reaches it: e.g. 2048 vertices at 25% density.
const heavyScore = 512

// Admission is the worker's two-lane admission controller. Instances are
// classified by size class — vertex count and edge density — into a fast
// lane (small/sparse graphs whose portfolio race finishes in microseconds
// to low milliseconds) and a bounded heavy lane (large or dense graphs
// that can hold pool workers for a whole deadline). Each lane is a
// semaphore with its own depth; a full lane rejects with 429 instead of
// letting heavy instances queue behind — or starve — the fast path.
//
// Cache hits bypass admission entirely: the lanes guard compute, not
// memory reads.
type Admission struct {
	cfg   AdmissionConfig
	fast  chan struct{}
	heavy chan struct{}
}

// AdmissionConfig parameterizes the heavy lane. Zero values take
// defaults.
type AdmissionConfig struct {
	// HeavySlots bounds concurrently admitted heavy-lane solves (default
	// 2): at most this many expensive races occupy the pool at once.
	HeavySlots int
	// HeavyVertices classifies an instance heavy by size alone (default
	// 20000 vertices).
	HeavyVertices int
}

func (c *AdmissionConfig) fillDefaults() {
	if c.HeavySlots <= 0 {
		c.HeavySlots = 2
	}
	if c.HeavyVertices <= 0 {
		c.HeavyVertices = 20000
	}
}

// Lane identifies an admission lane.
type Lane int

const (
	LaneFast Lane = iota
	LaneHeavy
)

func (l Lane) String() string {
	if l == LaneHeavy {
		return "heavy"
	}
	return "fast"
}

// NewAdmission builds the controller. The fast lane admits 8 ×
// GOMAXPROCS solves: fast instances mostly wait in the pool queue, so the
// lane is wide and the pool's own 429 backstop still applies.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg.fillDefaults()
	return &Admission{
		cfg:   cfg,
		fast:  make(chan struct{}, 8*runtime.GOMAXPROCS(0)),
		heavy: make(chan struct{}, cfg.HeavySlots),
	}
}

// Classify buckets an instance by size class.
func (a *Admission) Classify(vertices int, density float64) Lane {
	if vertices >= a.cfg.HeavyVertices || float64(vertices)*density >= heavyScore {
		return LaneHeavy
	}
	return LaneFast
}

// TryAcquire claims a slot in the lane without blocking; false means the
// lane is full and the request should be rejected with 429.
func (a *Admission) TryAcquire(l Lane) bool {
	select {
	case a.lane(l) <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (a *Admission) Release(l Lane) { <-a.lane(l) }

// Depth reports the lane's current occupancy.
func (a *Admission) Depth(l Lane) int { return len(a.lane(l)) }

func (a *Admission) lane(l Lane) chan struct{} {
	if l == LaneHeavy {
		return a.heavy
	}
	return a.fast
}
