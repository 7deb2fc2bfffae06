package main

import (
	"encoding/binary"
	"sort"
	"time"
)

// hostClock measures, all through a run, how fast the host runs this
// process, and corrects durations for it.
//
// On the boxes this benchmark runs on, the same code on an otherwise idle
// VM runs up to 1.7 times slower for seconds to minutes at a time (README,
// finding 1): raw wall and CPU times of identical runs spread 15-30 %. So
// between steps, every probeEvery, the clock times a fixed probe of
// Go-shaped work, by the wall and by the process's CPU time. The slowdown in
// force at a moment is the median of the five probes around it over
// referenceProbeMs; a wall time is corrected by dividing it by the wall
// slowdown in force while it ran, a CPU time by the CPU slowdown. The two
// agree while the process has its CPU to itself, which is what the
// correction is for; a competitor on the same CPU stretches wall times only.
// Every end-to-end time is corrected, and printed beside its raw value; the
// traced run reports raw times and host.slowdown.
type hostClock struct {
	at        []time.Time // when each probe ended
	ms, cpuMs []float64   // how long it took, by the wall and in CPU time
	last      time.Time
	slow      []slowdown // per probe, from fix()
}

// slowdown is how many times slower than the reference the host runs, as
// wall time and as CPU time show it.
type slowdown struct {
	wall, cpu float64
}

const (
	probeEvery = 100 * time.Millisecond
	// referenceProbeMs fixes the unit of a corrected time: it is the time
	// the work would take on a host that runs the probe in this long. The
	// reference has to be absolute: whole runs sit at different speeds, so a
	// run's own quietest probes leave two to three times the spread between
	// runs (README, finding 1).
	referenceProbeMs = 4.0
)

var (
	probeMap    = make(map[int]int, 8192)
	probeInts   = make([]int, 20000)
	probeBytes  = make([]byte, 512<<10)
	probeVarint = make([]byte, 64<<10)
	probeSink   uint64
)

// probe is the fixed unit of work: map updates, a sort, a pass over a
// buffer larger than L1, and varint coding with a multiplicative hash. The
// mix was chosen among six candidates as the one whose slowdown tracks the
// workloads' best (README, finding 1); it allocates nothing.
func probe() {
	for i := 0; i < 30000; i++ {
		probeMap[(i*7919)%8192] += i
	}
	x := uint32(12345)
	for i := range probeInts {
		x = x*1664525 + 1013904223
		probeInts[i] = int(x >> 8)
	}
	sort.Ints(probeInts)
	var sum byte
	for i := 0; i < len(probeBytes); i += 64 {
		probeBytes[i]++
		sum += probeBytes[i]
	}
	h := uint64(14695981039346656037) + uint64(sum)
	for r := 0; r < 12; r++ {
		n := 0
		for i := uint64(0); n < len(probeVarint)-binary.MaxVarintLen64; i += 977 {
			n += binary.PutUvarint(probeVarint[n:], i*i)
		}
		for off := 0; off < n; {
			v, k := binary.Uvarint(probeVarint[off:])
			off += k
			h = (h ^ v) * 1099511628211
		}
	}
	probeSink = h
}

// sample times one probe.
func (c *hostClock) sample() {
	start, cpu := time.Now(), cpuTime()
	probe()
	cpu = cpuTime() - cpu
	c.last = time.Now()
	c.at = append(c.at, c.last)
	c.ms = append(c.ms, float64(c.last.Sub(start))/1e6)
	c.cpuMs = append(c.cpuMs, float64(cpu)/1e6)
}

// tick samples if a probe is due.
func (c *hostClock) tick() {
	if time.Since(c.last) >= probeEvery {
		c.sample()
	}
}

// burst samples n probes back to back.
func (c *hostClock) burst(n int) {
	for i := 0; i < n; i++ {
		c.sample()
	}
}

// fix computes each probe's local slowdown once sampling is over.
func (c *hostClock) fix() {
	c.slow = make([]slowdown, len(c.ms))
	for i := range c.ms {
		lo, hi := max(0, i-2), min(len(c.ms), i+3)
		c.slow[i] = slowdown{median(c.ms[lo:hi]) / referenceProbeMs, median(c.cpuMs[lo:hi]) / referenceProbeMs}
	}
}

// slowdownAt is the slowdown in force at t: that of the first probe ending
// at or after t, or of the last probe.
func (c *hostClock) slowdownAt(t time.Time) slowdown {
	i := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(t) })
	return c.slow[min(i, len(c.slow)-1)]
}

// stepRec is one timed step of a timeline.
type stepRec struct {
	start, end time.Time
	cpu        time.Duration
	slow       slowdown // in force while it ran, from stop()
}

// timeline times a sequence of steps with the host clock ticking between
// them. Set-ups and the measured phase are both timelines: what a phase
// took is the sum of its steps, each corrected by the slowdown in force
// while it ran; the probes themselves are in no step.
type timeline struct {
	clock hostClock
	steps []stepRec
}

// start probes the host and opens the first step.
func (t *timeline) start() {
	t.clock.burst(3)
	t.steps = append(t.steps, stepRec{start: time.Now(), cpu: cpuTime()})
}

func (t *timeline) closeStep() {
	st := &t.steps[len(t.steps)-1]
	st.end, st.cpu = time.Now(), cpuTime()-st.cpu
}

// lap ends the open step, probes the host if a probe is due, and opens the
// next step.
func (t *timeline) lap() {
	t.closeStep()
	t.clock.tick()
	t.steps = append(t.steps, stepRec{start: time.Now(), cpu: cpuTime()})
}

// stop ends the last step, probes the host and fixes every step's slowdown.
func (t *timeline) stop() {
	t.closeStep()
	t.clock.burst(3)
	t.clock.fix()
	for i := range t.steps {
		st := &t.steps[i]
		st.slow = t.clock.slowdownAt(st.start.Add(st.end.Sub(st.start) / 2))
	}
}

// phaseTimes is what a timeline's steps took, in seconds: as measured, and
// corrected for the host.
type phaseTimes struct {
	rawWall, rawCPU, wall, cpu float64
}

func (t *timeline) times() (p phaseTimes) {
	for _, st := range t.steps {
		took := st.end.Sub(st.start).Seconds()
		p.rawWall += took
		p.rawCPU += st.cpu.Seconds()
		p.wall += took / st.slow.wall
		p.cpu += st.cpu.Seconds() / st.slow.cpu
	}
	return p
}

// slows is every step's slowdown.
func (t *timeline) slows() (wall, cpu []float64) {
	for _, st := range t.steps {
		wall, cpu = append(wall, st.slow.wall), append(cpu, st.slow.cpu)
	}
	return wall, cpu
}
