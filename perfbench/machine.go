package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machineShape describes where a result was measured: CPUs, Go, the code
// measured and the network path. The checkout need not be a git repository,
// so the code is named by a digest of its Go sources next to the commit
// when git knows one.
func machineShape(root string) string {
	commit := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s source=%s cpu=%q network=loopback",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest(root), cpuModel())
}

// sourceDigest hashes go.mod and every .go file outside the benchmark's own
// directory and build output, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || p == filepath.Join(root, "go.mod")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

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

// splitmix64 derives well-mixed values (ports, offsets) from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// supported lowers quantile q, where the sample of n is too small, to the
// highest quantile that still leaves ten samples beyond it (never below the
// median).
func supported(q float64, n int) float64 {
	if n > 0 {
		q = math.Min(q, 1-10/float64(n))
	}
	return math.Max(q, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// cpuSelf returns this process's user+system CPU time. Like procCPU it
// does not count time the hypervisor stole from a vCPU.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/stat times.
const clockTick = 10 * time.Millisecond

// procCPU returns the CPU time process pid's threads have run, to the
// nanosecond, from the scheduler's per-thread accounting (the first field
// of /proc/<pid>/task/<tid>/schedstat). Time the hypervisor stole from a
// vCPU is not counted. A thread that has exited is not counted either;
// rootserve's threads live as long as the process.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// stealTicks returns the machine's cumulative CPU steal time in clock ticks:
// time the hypervisor ran something else while a vCPU wanted to run.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// udpRcvbufErrors returns the kernel's count of UDP datagrams dropped
// because a socket's receive buffer was full (RcvbufErrors in
// /proc/net/snmp), or -1 when unavailable.
func udpRcvbufErrors() int64 {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return -1
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "Udp:" {
			continue
		}
		if names == nil {
			names = f
			continue
		}
		for i, name := range names {
			if name == "RcvbufErrors" && i < len(f) {
				v, _ := strconv.ParseInt(f[i], 10, 64)
				return v
			}
		}
	}
	return -1
}

// stealShare is the share of all CPUs' time the hypervisor gave to other
// guests between two stealTicks readings taken d apart. It is printed with
// every phase: on a shared host it explains a wall-clock figure that moved.
func stealShare(t0, t1 int64, d time.Duration) float64 {
	return float64(t1-t0) * clockTick.Seconds() / (d.Seconds() * float64(runtime.NumCPU()))
}
