package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// heapObjects returns the heap objects allocated since the process
// started, tiny allocations included, as runtime/metrics reports them.
func heapObjects() uint64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(s)
	var n uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			n += x.Value.Uint64()
		}
	}
	return n
}

// gcState is a snapshot of the collector's cumulative counters.
type gcState struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcState {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcState{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuModel returns the CPU model name, or "unknown" where the system
// does not say.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds returns the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// stealSeconds returns the CPU time, summed over all CPUs, that the
// hypervisor has given to other guests while this machine's CPUs wanted
// to run, as /proc/stat counts it; 0 where the system does not say. It
// shows how much of a run's spread comes from outside the process.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// userHZ is the tick rate /proc/stat counts in on Linux.
const userHZ = 100

// heldBytes returns the memory the Go runtime holds from the system and
// has not returned to it: heap, stacks and runtime metadata, which is
// what stays resident.
func heldBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// memEvery is how often a memSampler takes its readings.
const memEvery = 20 * time.Millisecond

// memSampler reads heldBytes and the host's steal time at a fixed period
// on its own goroutine until stopped. The mean of many memory readings is
// steady where a single peak depends on where the collector happened to
// be; the steal series tells which stretches of the phase the hypervisor
// took CPU time from the machine.
type memSampler struct {
	done    chan struct{}
	stopped chan struct{}
	sum     float64
	n       int
	at      []time.Time // when each steal reading was taken
	steal   []float64   // stealSeconds then
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{done: make(chan struct{}), stopped: make(chan struct{})}
	m.read()
	go func() {
		defer close(m.stopped)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-m.done:
				m.read()
				return
			case <-t.C:
				m.sum += float64(heldBytes())
				m.n++
				m.read()
			}
		}
	}()
	return m
}

func (m *memSampler) read() {
	m.at = append(m.at, time.Now())
	m.steal = append(m.steal, stealSeconds())
}

// stop ends the sampling and waits for the goroutine to exit.
func (m *memSampler) stop() {
	close(m.done)
	<-m.stopped
}

// meanMiB is the mean reading; call it after stop.
func (m *memSampler) meanMiB() float64 {
	return ratio(m.sum, float64(m.n)) / (1 << 20)
}

// stealShare is the share of one CPU the hypervisor took from the
// machine between the readings around t0 and t1; call it after stop.
func (m *memSampler) stealShare(t0, t1 time.Time) float64 {
	i0 := sort.Search(len(m.at), func(i int) bool { return m.at[i].After(t0) }) - 1
	i1 := sort.Search(len(m.at), func(i int) bool { return !m.at[i].Before(t1) })
	i0, i1 = max(i0, 0), min(i1, len(m.at)-1)
	if i1 <= i0 {
		return 0
	}
	return ratio(m.steal[i1]-m.steal[i0], m.at[i1].Sub(m.at[i0]).Seconds())
}
