package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// newRand returns the workload's generator for one purpose. Each
// purpose (schedule, request parameters, ...) gets its own stream so
// that adding a draw to one never shifts another.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x726d7162656e6368^stream))
}

// poissonSchedule returns n arrival offsets of a Poisson process on
// [0, span), conditioned on exactly n arrivals: n sorted uniform draws.
// Conditioning fixes the sample count per run, so the tail percentile
// the benchmark reports is the same percentile on every seed.
func poissonSchedule(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Int64N(int64(span)))
	}
	slices.Sort(due)
	return due
}

// opTiming is one open-loop operation, as offsets from the loop's start.
type opTiming struct {
	due, start, end time.Duration
	// late is how far past due the connection, free and waiting, woke
	// up: the generator's own lateness.
	late time.Duration
	// connWait is how long the operation waited past due for the
	// connection, because the previous operation still ran.
	connWait time.Duration
	// cpu is the CPU time the whole process spent from start to end.
	cpu time.Duration
}

// latency is the operation's time from when it was due, so a stall
// charges the wait it imposes on every request queued behind it.
func (t opTiming) latency() time.Duration { return t.end - t.due }

// openLoop issues the scheduled operations one at a time on one
// connection: it sleeps until an operation is due (or starts it at once
// if it is already overdue) and runs op. One connection keeps each
// operation's process CPU time its own; an operation due while the
// previous one runs waits, and its latency from due counts the wait.
func openLoop(base time.Time, due []time.Duration, op func(i int)) []opTiming {
	timings := make([]opTiming, len(due))
	for i := range due {
		t := &timings[i]
		t.due = due[i]
		if now := time.Since(base); now < due[i] {
			time.Sleep(due[i] - now)
			t.start = time.Since(base)
			t.late = t.start - due[i]
		} else {
			t.start = now
			t.connWait = now - due[i]
		}
		cpu := processCPU()
		op(i)
		t.cpu = processCPU() - cpu
		t.end = time.Since(base)
	}
	return timings
}

// minBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailRank returns the index into n ascending-sorted samples of the
// highest nearest-rank percentile that leaves at least minBeyond samples
// after it, and that percentile.
func tailRank(n int) (int, float64, error) {
	if n < minBeyond+1 {
		return 0, 0, fmt.Errorf("%d samples cannot give a tail percentile with %d beyond it", n, minBeyond)
	}
	k := n - 1 - minBeyond
	return k, 100 * float64(k+1) / float64(n), nil
}

// tail reports the tail latency of the samples (in ms) and a note
// naming the percentile and the sample count.
func tail(samples []float64) (float64, string, error) {
	s := sortedCopy(samples)
	k, pct, err := tailRank(len(s))
	if err != nil {
		return 0, "", err
	}
	return s[k], fmt.Sprintf("p%.1f of %d samples (%d beyond)", pct, len(s), len(s)-1-k), nil
}

func sortedCopy(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1); 0 for no
// samples.
func quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sortedCopy(x)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median is the midpoint median: the mean of the two middle samples
// for an even count.
func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := sortedCopy(x)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(x []float64) float64 {
	t := 0.0
	for _, v := range x {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID):
// the time its threads ran, summed. The kernel leaves out the time the
// hypervisor stole from a running vCPU and the time a thread waited to
// run, so on a shared host it measures the program's own work where
// the wall clock also measures the other guests.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
