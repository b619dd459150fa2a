package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// phase is what one measurement loop over a workload produced.
type phase struct {
	attempted, correct int
	failures           []string
	latMS              []float64     // per-task latency
	busy               time.Duration // timed work of the current pass
	wallBusy           time.Duration // the same work in wall-clock time
	rates              []float64     // tasks per second, one per pass
	wallRates          []float64     // the same in wall-clock time
	passTasks          int           // tasks of the current pass
	passEnds           []int         // len(latMS) at the end of each pass
	passRSS            float64       // highest resident set sampled in the pass
	rssPeaks           []float64     // passRSS, one per pass
	setups             []float64     // seconds, one per set-up
	passes             int
	// exact holds the counts of the first pass; every later pass must
	// repeat them (see endPass).
	exact                 map[string]int64
	peakRSSMB, retainedMB float64
	layer                 map[string]float64 // per-layer metrics (traced phases)
	info                  map[string]any     // workload facts for the report
}

func newPhase() *phase {
	return &phase{layer: map[string]float64{}, info: map[string]any{}}
}

// tasksPerSec is the median over passes of tasks completed per second
// of timed work; the median keeps a pass disturbed by other load on
// the host from moving the figure.
func (ph *phase) tasksPerSec() float64 { return median(ph.rates) }

// task records one attempted task.
func (ph *phase) task(lat time.Duration, err error) {
	ph.attempted++
	ph.passTasks++
	ph.latMS = append(ph.latMS, float64(lat)/float64(time.Millisecond))
	if err != nil {
		if len(ph.failures) < 20 {
			ph.failures = append(ph.failures, err.Error())
		}
		return
	}
	ph.correct++
}

// endPass closes a pass: the first pass's exact counts become the
// reference, and any later difference is a failure.
func (ph *phase) endPass(counts map[string]int64) {
	ph.passes++
	ph.passEnds = append(ph.passEnds, len(ph.latMS))
	if ph.busy > 0 {
		ph.rates = append(ph.rates, float64(ph.passTasks)/ph.busy.Seconds())
	}
	if ph.wallBusy > 0 {
		ph.wallRates = append(ph.wallRates, float64(ph.passTasks)/ph.wallBusy.Seconds())
	}
	if ph.passRSS > 0 {
		ph.rssPeaks = append(ph.rssPeaks, ph.passRSS)
	}
	ph.busy, ph.wallBusy, ph.passTasks, ph.passRSS = 0, 0, 0, 0
	if ph.exact == nil {
		ph.exact = counts
		return
	}
	ph.failures = append(ph.failures, diffExact(fmt.Sprintf("pass %d vs pass 1", ph.passes), ph.exact, counts)...)
}

// sameAnswer is the answer gate of the in-process workloads: in the
// first pass check decides and the answer is kept under key; a later
// pass must return the kept answer byte for byte.
func (ph *phase) sameAnswer(answers map[string]string, key, answer string, check func() error) error {
	if ph.passes == 0 {
		if err := check(); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		answers[key] = answer
		return nil
	}
	switch want, ok := answers[key]; {
	case !ok:
		return fmt.Errorf("%s: answer of pass 1 failed the check", key)
	case answer != want:
		return fmt.Errorf("%s: answer differs from pass 1", key)
	}
	return nil
}

// more reports whether another pass is due.
func (ph *phase) more(start time.Time, budget time.Duration, minSamples int) bool {
	return ph.passes < 2 || len(ph.latMS) < minSamples || time.Since(start) < budget
}

func diffExact(what string, a, b map[string]int64) []string {
	var out []string
	for _, k := range sortedKeys(a, b) {
		if a[k] != b[k] {
			out = append(out, fmt.Sprintf("%s: exact count %s differs: %d vs %d", what, k, a[k], b[k]))
		}
	}
	return out
}

func sortedKeys(ms ...map[string]int64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tail is the latency at percentile p. It is computed for each block of
// consecutive passes that holds at least minSamples samples (so that ten
// or more lie beyond p), and reported as the median over the blocks, so
// that a stretch of passes slowed by other load on the host moves it
// less. Every pass records the same number of samples. It also returns
// the block count and the smallest block's sample count.
func (ph *phase) tail(p float64, minSamples int) (value float64, blocks, smallest int) {
	if len(ph.passEnds) == 0 {
		return 0, 0, 0
	}
	per := ph.passEnds[0]
	size := max(1, (minSamples+per-1)/per) // passes per block
	blocks = max(1, len(ph.passEnds)/size)
	var vals []float64
	smallest = len(ph.latMS)
	lo := 0
	for b := 0; b < blocks; b++ {
		hi := ph.passEnds[(b+1)*size-1]
		if b == blocks-1 {
			hi = len(ph.latMS) // the last block takes the remainder
		}
		vals = append(vals, percentile(ph.latMS[lo:hi], p))
		smallest = min(smallest, hi-lo)
		lo = hi
	}
	return median(vals), blocks, smallest
}

// beyond is the number of samples above the nearest-rank percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// sampleRSS samples the process's resident set (outside timed code).
func (ph *phase) sampleRSS() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err == nil {
		ph.passRSS = max(ph.passRSS, pages*float64(os.Getpagesize())/(1<<20))
	}
}

// heldMemory records the peak resident set, as the median over passes
// of the highest resident set sampled after each task (the process's
// high-water mark is used when sampling is unavailable), and the live
// heap after a forced collection; keep is what the workload still
// holds at the end of the run.
func (ph *phase) heldMemory(keep any) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ph.retainedMB = float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(keep)
	if len(ph.rssPeaks) > 0 {
		ph.peakRSSMB = median(ph.rssPeaks)
		return
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		ph.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// span is one timed call into a layer. Spans of one task share Task.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Task   int    `json:"task"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// clock reads a time: wall-clock time since some start, or processCPU.
type clock func() time.Duration

func wallClock() clock {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// processCPU is the CPU time consumed by every thread of the process.
// The in-process workloads time their tasks with it. It counts the
// runtime's own work for the task (garbage collection on any thread,
// with its mark workers, sweeping and pauses) and leaves out the time a
// hypervisor runs other guests on this CPU (steal), which moved
// wall-clock task times by about 15% between runs on the shared 2-core
// host the benchmark was built on. The benchmark runs no goroutine of
// its own while a task is timed.
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	now   clock
	spans []span
}

func newTracer(now clock) *tracer { return &tracer{now: now} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (tr *tracer) begin(name string, parent, task int) int {
	if tr == nil {
		return -1
	}
	now := int64(tr.now())
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Task: task, Name: name, Start: now})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) {
	if tr == nil {
		return
	}
	now := int64(tr.now())
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// total returns the number of spans with the name and their summed
// duration.
func (tr *tracer) total(name string) (int, time.Duration) {
	if tr == nil {
		return 0, 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n, sum := 0, int64(0)
	for _, s := range tr.spans {
		if s.Name == name {
			n++
			sum += s.End - s.Start
		}
	}
	return n, time.Duration(sum)
}

// mean is the mean duration of the named spans in the given unit.
func (tr *tracer) mean(name string, unit time.Duration) float64 {
	n, sum := tr.total(name)
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

// write stores the spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint identifies the host a result was measured on.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// inputDigest hashes the generated inputs in use order.
func inputDigest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rng is splitmix64: a tiny generator whose streams depend only on the
// seed, on every platform and Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 + uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm is a Fisher-Yates permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
