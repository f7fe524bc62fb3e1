package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// job is one operation of an open-loop stream: it is due at start+due
// whether or not earlier operations have been answered.
type job struct {
	due   time.Duration
	write bool
	idx   int // index into the run's read pairs or write batches
}

// sample is what the generator measured for one job.
type sample struct {
	job
	// latency runs from when the job was due to when its answer arrived, so
	// time a job spent queued behind a stall is charged to it.
	latency time.Duration
	// wait is how long after its due time the job was sent: a sender's
	// oversleep or the time the job queued for a free sender.
	wait time.Duration
	// late is how long after its due time a sender that slept until then
	// woke up: the generator's own lateness, not the system's.
	late time.Duration
	ok   bool
}

// schedule lays out reads at readRate and writes at writeRate over d, each
// evenly spaced, merged in due order. A constant spacing keeps the offered
// load identical across seeds; the seed only chooses which pairs and
// mutations are sent.
func schedule(d time.Duration, readRate, writeRate float64, firstRead, firstWrite int) []job {
	var jobs []job
	add := func(rate float64, write bool, first int) {
		if rate <= 0 {
			return
		}
		n := int(rate * d.Seconds())
		step := float64(time.Second) / rate
		for i := 0; i < n; i++ {
			jobs = append(jobs, job{due: time.Duration(float64(i) * step), write: write, idx: first + i})
		}
	}
	add(readRate, false, firstRead)
	add(writeRate, true, firstWrite)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].due < jobs[j].due })
	return jobs
}

// runOpenLoop plays jobs on schedule through a fixed pool of senders. Each
// sender claims the next job in due order and sleeps until it is due; a
// job due while every sender is busy waits, and its latency still counts
// from when it was due. do runs one job on the given sender and reports
// whether it succeeded.
func runOpenLoop(jobs []job, senders int, do func(sender int, j job) bool) []sample {
	samples := make([]sample, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				due := start.Add(jobs[i].due)
				smp := &samples[i]
				smp.job = jobs[i]
				if d := time.Until(due); d > 0 {
					// Only a sender that slept can be late by its own fault;
					// a job claimed after its due time waited for a sender.
					time.Sleep(d)
					smp.late = time.Since(due)
				}
				smp.wait = time.Since(due)
				smp.ok = do(s, jobs[i])
				smp.latency = time.Since(due)
			}
		}(s)
	}
	wg.Wait()
	return samples
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of xs, which it sorts.
// It refuses when fewer than minBeyond samples would lie beyond it: a p99
// needs at least 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it; need %d", 100*q, n, n-rank, minBeyond)
	}
	sort.Float64s(xs)
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], nil
}

// chunkSize is how many consecutive samples chunkedP99 takes a p99 over:
// the fewest that leave ten beyond it.
const chunkSize = 100 * minBeyond

// chunkedP99 is the median, over consecutive chunks of at least chunkSize
// samples in schedule order, of each chunk's p99. A stall of the machine
// lifts the p99 of the chunk it falls in; the median over chunks reports
// the tail a typical stretch of the run saw, so one stall does not decide
// the run's figure.
func chunkedP99(xs []float64) (float64, error) {
	k := len(xs) / chunkSize
	if k == 0 {
		return percentile(append([]float64(nil), xs...), 0.99)
	}
	p99s := make([]float64, k)
	for c := 0; c < k; c++ {
		chunk := append([]float64(nil), xs[c*len(xs)/k:(c+1)*len(xs)/k]...)
		p, err := percentile(chunk, 0.99)
		if err != nil {
			return 0, err
		}
		p99s[c] = p
	}
	return median(p99s), nil
}

// median returns the middle value of xs (sorting it); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 1 {
		return xs[n/2]
	} else {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
