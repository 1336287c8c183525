package main

import (
	"math/rand"
	"sort"
	"time"
)

// speedProbe measures how fast the host runs right now. The host's cores
// are shared, and a neighbour's load slows every instruction of this
// process, not just its wall clock: on a shared 2-core host, passes of
// identical work within one run read up to 15% apart, and over minutes the
// whole machine's speed shifts by up to a third. The probe runs a fixed
// piece of work between the measured ops, and the run scales its times by
// how much slower or faster the probe ran than probeReference.
//
// The work uses only the standard library and never calls graphrep, so a
// change to the program does not change its cost; only the host's speed
// does. It is the same kind of work the engine's distance kernel and
// session code do (small dynamic-programming tables, a sort, map updates)
// and it allocates nothing, so it does not change when the program's
// garbage collector runs.
type speedProbe struct {
	a, b      []byte
	prev, cur []int
	xs, ys    []int
	m         map[int]int
	rng       *rand.Rand
	sink      int
}

func newSpeedProbe() *speedProbe {
	const n, sorted = 48, 20000
	p := &speedProbe{
		a: make([]byte, n), b: make([]byte, n),
		prev: make([]int, n+1), cur: make([]int, n+1),
		xs: make([]int, sorted), ys: make([]int, sorted),
		m:   make(map[int]int, 4096),
		rng: rand.New(rand.NewSource(7)),
	}
	for i := range p.xs {
		p.xs[i] = p.rng.Int()
	}
	return p
}

// work runs the fixed piece of work once: about 4 ms on a 2-core host.
func (p *speedProbe) work() {
	rng := p.rng
	rng.Seed(7)
	n := len(p.a)
	sum := 0
	for pair := 0; pair < 120; pair++ {
		for i := range p.a {
			p.a[i], p.b[i] = byte(rng.Intn(6)), byte(rng.Intn(6))
		}
		prev, cur := p.prev, p.cur
		for j := range prev {
			prev[j] = j
		}
		for i := 1; i <= n; i++ {
			cur[0] = i
			for j := 1; j <= n; j++ {
				c := prev[j-1]
				if p.a[i-1] != p.b[j-1] {
					c++
				}
				cur[j] = min(c, prev[j]+1, cur[j-1]+1)
			}
			prev, cur = cur, prev
		}
		sum += prev[n]
	}
	copy(p.ys, p.xs)
	sort.Ints(p.ys)
	clear(p.m)
	for i, y := range p.ys {
		p.m[y%4096] += i
	}
	p.sink = sum + len(p.m)
}

// probeTime is the wall and process CPU time of probe runs.
type probeTime struct {
	runs      int
	wall, cpu time.Duration
}

// run times reps runs of the work and adds them to t.
func (p *speedProbe) run(reps int, t *probeTime) {
	c0, w0 := cpuTime(), time.Now()
	for i := 0; i < reps; i++ {
		p.work()
	}
	t.wall += time.Since(w0)
	t.cpu += cpuTime() - c0
	t.runs += reps
}

// probeReference is the reference time of one run of the probe's work,
// about what it takes on an unloaded 2-core host. Untraced time metrics are
// reported at the speed at which the probe takes exactly this long.
const probeReference = 4 * time.Millisecond

// slowdown is how many times longer the probe ran than probeReference:
// above 1 the host ran slower than the reference, below 1 faster. A time
// measured beside the probe, divided by slowdown, is that time at the
// reference speed.
func (t probeTime) slowdown() float64 {
	return float64(t.wall) / float64(t.runs) / float64(probeReference)
}
