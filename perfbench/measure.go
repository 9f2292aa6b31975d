package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user+sys CPU time (getrusage).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// RSS, so a later peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns VmHWM in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// stealSeconds returns the host's cumulative steal time over all CPUs
// from /proc/stat (0 when unreadable: the figure is a diagnostic).
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			ticks, err := strconv.ParseFloat(fields[8], 64)
			if err != nil {
				return 0
			}
			return ticks / 100 // USER_HZ
		}
	}
	return 0
}

// refLoop times a fixed CPU and memory loop that owes nothing to the
// program under test: a dependent pseudo-random walk over 32 MB plus
// integer mixing. Its time tells a slow host apart from a slow program.
func refLoop() float64 {
	const n = 8 << 20 // 32 MB of uint32
	buf := make([]uint32, n)
	for i := range buf {
		buf[i] = uint32(i*2654435761) & (n - 1)
	}
	start := time.Now()
	var x, acc uint32
	for i := 0; i < 1_000_000; i++ {
		x = buf[(x^uint32(i))&(n-1)]
		acc = acc*1664525 + x + 1013904223
	}
	d := time.Since(start).Seconds()
	refSink = acc
	return d
}

// refSink keeps refLoop's result observable, so the loop is not
// optimized away.
var refSink uint32

// hostProbe records the host diagnostics beside a run: steal time
// over the run and reference-loop times sampled before and after the
// units, so that they cover the host's speed while the units ran.
type hostProbe struct {
	steal0 float64
	refs   []float64
}

func startHostProbe() *hostProbe {
	h := &hostProbe{steal0: stealSeconds()}
	h.sample()
	return h
}

// sample times the reference loop once more.
func (h *hostProbe) sample() { h.refs = append(h.refs, refLoop()) }

// metrics returns host.ref_s (the median sample) and host.steal_s
// (steal since the probe started).
func (h *hostProbe) metrics() map[string]metric {
	return map[string]metric{
		"host.ref_s":   {median(h.refs), "s"},
		"host.steal_s": {stealSeconds() - h.steal0, "s"},
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// runtimeSnap is a runtime/metrics reading of the Go runtime figures
// the traced run reports.
type runtimeSnap struct{ allocBytes, gcCycles, gcCPU float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSnap{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// since returns the runtime figures accumulated after r0.
func (r runtimeSnap) since(r0 runtimeSnap) runtimeSnap {
	return runtimeSnap{r.allocBytes - r0.allocBytes, r.gcCycles - r0.gcCycles, r.gcCPU - r0.gcCPU}
}

// digest returns the hex sha256 of b.
func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// firstDiff describes where two byte slices first differ (for
// mismatch messages).
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("first difference at byte %d", i)
		}
	}
	if bytes.Equal(got, want) {
		return "equal"
	}
	return fmt.Sprintf("lengths %d vs %d", len(got), len(want))
}
