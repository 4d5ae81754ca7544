package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host records where a measurement was taken; every output carries it.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Revision   string `json:"revision"`
}

func hostFacts() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Revision = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		h.Revision += dirty
	}
	return h
}

// cost is the host cost of one measured call.
type cost struct {
	// wall and cpu are seconds of wall time and of this process's
	// user+sys CPU time (every thread), as measured.
	wall, cpu float64
	// speedBefore and speedAfter are the host speed index just before and
	// just after the call.
	speedBefore, speedAfter float64
	// peakRSSMB is the process's peak resident set when the call returned.
	peakRSSMB float64
	// mallocs and bytes count heap allocations made during the call.
	mallocs, bytes float64
	// gcCPU and busyCPU are the runtime's estimates of CPU seconds spent
	// in the collector and in total minus idle; they include the one
	// collection forced after the call.
	gcCPU, busyCPU float64
	// liveHeap is the heap still live after that collection, in bytes.
	liveHeap float64
}

// speed is the host speed index over the call.
func (c cost) speed() float64 { return (c.speedBefore + c.speedAfter) / 2 }

// scaledWall is the call's wall time on the reference host.
func (c cost) scaledWall() float64 { return c.wall / c.speed() }

// measure runs fn once from a freshly collected heap and prices it.
// keep is held live until the end-of-call heap has been measured.
func measure(fn func() error, keep ...any) (cost, error) {
	return measureOn(1, fn, keep...)
}

// measureOn is measure for a call that keeps `cores` cores busy; its
// speed index comes from that many cores at once.
func measureOn(cores int, fn func() error, keep ...any) (cost, error) {
	c := cost{speedBefore: speedIndex(cores)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rt0 := readRuntime()
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	c.wall, c.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	c.peakRSSMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	c.mallocs = float64(m1.Mallocs - m0.Mallocs)
	c.bytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	runtime.GC()
	rt1 := readRuntime()
	runtime.KeepAlive(keep)
	c.gcCPU = rt1[0] - rt0[0]
	c.busyCPU = (rt1[1] - rt1[2]) - (rt0[1] - rt0[2])
	c.liveHeap = rt1[3]
	c.speedAfter = speedIndex(cores)
	return c, err
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() [4]float64 {
	s := make([]rtmetrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's peak resident set (VmHWM) in MiB, or 0 if
// /proc does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// The host speed index: how slowly the host runs right now, from two
// fixed kernels that use only the standard library, so their time moves
// with the host and never with the repository's code. On a shared host
// the same rep can take half again as long from one minute to the next;
// dividing host times by the index taken around them removes most of
// that (README, "Host noise").

// nominalKernelS are the kernels' median times on the development host,
// a 2-vCPU Xeon KVM guest, where speedIndex is about 1.
var nominalKernelS = [2]float64{0.016, 0.031}

// kernelTimes times a sort of 2^17 floats and 2^17 pop/push rounds on a
// binary heap of 2048 timestamped callbacks, the engine's shape.
func kernelTimes() [2]float64 {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	xs := make([]float64, 1<<17)
	for i := range xs {
		xs[i] = float64(next() >> 11)
	}
	t0 := time.Now()
	sort.Float64s(xs)
	sortS := time.Since(t0).Seconds()

	t0 = time.Now()
	h := make(callbackHeap, 0, 2048)
	for i := 0; i < 2048; i++ {
		heap.Push(&h, callback{at: float64(next() >> 11)})
	}
	for i := 0; i < 1<<17; i++ {
		c := heap.Pop(&h).(callback)
		c.at += float64(next()>>40) + 1
		heap.Push(&h, c)
	}
	return [2]float64{sortS, time.Since(t0).Seconds()}
}

// speedIndex is the geometric mean of the kernels' times over their
// nominal times: 2 means the host runs at half the reference speed. With
// several cores it runs one copy per core at once and takes the slowest,
// which is what sets a parallel call's pace.
func speedIndex(cores int) float64 {
	runs := make([][2]float64, cores)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = kernelTimes()
		}()
	}
	wg.Wait()
	sum := 0.0
	for k, nominal := range nominalKernelS {
		slowest := 0.0
		for _, r := range runs {
			slowest = max(slowest, r[k])
		}
		sum += math.Log(slowest / nominal)
	}
	return math.Exp(sum / float64(len(nominalKernelS)))
}

// callback mirrors an engine event: a due time and the function it runs.
type callback struct {
	at float64
	fn func()
}

type callbackHeap []callback

func (h callbackHeap) Len() int           { return len(h) }
func (h callbackHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h callbackHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *callbackHeap) Push(x any)        { *h = append(*h, x.(callback)) }
func (h *callbackHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}

// childTimeout bounds one child process; the longest, a traced child at
// the default scale, takes well under a minute.
const childTimeout = 170 * time.Second

// runChild re-executes this binary with args, waits for it, and decodes
// the JSON object it prints as its last line of standard output into out.
func runChild(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// Kill the child if this process dies first, so no rep outlives the
	// run that started it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), out); err != nil {
		return fmt.Errorf("child %v: decoding result: %w", args, err)
	}
	return nil
}
