package main

import "time"

// The host this benchmark was defined on is shared. With nothing else
// running in the guest a register-bound loop repeats within a few per
// cent, but anything that leaves the 2 MiB L2 — and every workload here
// does — runs up to a third slower for seconds or for tens of minutes
// while the neighbours are busy, all six workloads by about the same
// factor (README.md, "Noise"). Nothing measured inside a run steadies
// that: a slowdown that lasts the run moves every statistic of it alike.
//
// So the harness measures the host while it measures the program. A
// calibrator wakes every calPeriod during a section and times calReads
// independent random reads over 8 MB (four times the L2, a thirtieth
// of the L3), cold after the sleep: what one such read costs is what the
// memory system behind the L2 costs at that moment. When the benchmark
// was defined a section's time moved in proportion to the median of those
// readings (log-log slope 0.8 to 1.2 on the six workloads, r 0.90 or
// more, when the host was loud), and the reading was the same under all
// six workloads (11.4 to 12.0 ns in one hour), the memory-bound engine
// and the syscall-bound gossip plane alike: it follows the host, not
// what the program does on the other core. The end-to-end metrics are
// therefore reported at the reference reading hostRefNS: a time is
// multiplied by hostRefNS/reading, a rate by reading/hostRefNS. The
// notes of every run give the reading and the values as measured.
const (
	hostRefNS = 10.0
	calPeriod = 100 * time.Millisecond
	calReads  = 500_000
)

type hostProbe struct {
	arr []uint32 // 8 MB, a power of two long
}

func newHostProbe() *hostProbe {
	p := &hostProbe{arr: make([]uint32, 8<<20/4)}
	for i := range p.arr {
		p.arr[i] = uint32(i)
	}
	return p
}

// read returns nanoseconds per random read, carrying the generator's
// state in x.
func (p *hostProbe) read(x *uint64) float64 {
	s, mask := *x, uint64(len(p.arr)-1)
	var sum uint64
	t0 := time.Now()
	for i := 0; i < calReads; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		sum += uint64(p.arr[s&mask])
	}
	d := time.Since(t0)
	*x = s
	sink += sum
	return float64(d.Nanoseconds()) / calReads
}

// calibrator is one section's worth of readings.
type calibrator struct {
	stop, done chan struct{}
	ns         []float64
}

// calibrate starts reading the host; finish ends it. One at a time.
func (p *hostProbe) calibrate() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		x := uint64(88172645463325252)
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.ns = append(c.ns, p.read(&x))
			case <-c.stop:
				// A section shorter than the period still gets a reading.
				if len(c.ns) == 0 {
					c.ns = append(c.ns, p.read(&x))
				}
				return
			}
		}
	}()
	return c
}

// finish stops the readings and returns their median, in ns per read.
func (c *calibrator) finish() float64 {
	close(c.stop)
	<-c.done
	return median(c.ns)
}
