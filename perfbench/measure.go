package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// samples is a list of measurements of one quantity.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s samples) median() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// tail returns the highest of the percentiles 50, 75, 90, 95, 99 and
// 99.9 that has at least ten samples above it, and its value; ok is
// false when there are too few samples for any of them.
func (s samples) tail() (pct, value float64, ok bool) {
	c := s.sorted()
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		i := int(math.Ceil(p/100*float64(len(c)))) - 1 // nearest-rank
		if i < 0 {
			i = 0
		}
		if len(c)-1-i >= 10 {
			return p, c[i], true
		}
	}
	return 0, 0, false
}

// describe renders a timing as median, tail percentile, mean and
// sample count, then every sample.
func (s samples) describe(unit string) string {
	out := fmt.Sprintf("median=%.6g%s", s.median(), unit)
	if p, v, ok := s.tail(); ok {
		out += fmt.Sprintf(" p%g=%.6g%s", p, v, unit)
	} else {
		out += " (no percentile above the median has 10 samples beyond it)"
	}
	out += fmt.Sprintf(" mean=%.6g%s n=%d", s.mean(), unit, len(s))
	vals := make([]string, len(s))
	for i, v := range s {
		vals[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return out + " all=[" + strings.Join(vals, " ") + "]"
}

// peakRSS measures the peak resident set size of f in bytes. Freed heap
// is returned to the OS first and the kernel's high-water mark is reset
// (Linux /proc/self/clear_refs), so the figure is the process's resident
// memory at the highest point during f: the loaded graph plus whatever
// the solve allocated.
func peakRSS(f func()) (int64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	f()
	return vmHWM()
}

func vmHWM() (int64, error) {
	fh, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTicks returns the machine-wide CPU time, in clock ticks, that the
// hypervisor stole from this guest and the total over all states, from
// the first line of /proc/stat ("cpu user nice system idle iowait irq
// softirq steal ..."). Steal is the host noise a guest can see.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64) // a diagnostic: a bad field reads as 0
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// commit is the git revision run.sh passes in, or "unknown" outside a
// git checkout; the source digest identifies the code either way.
func hostTag(commit string) string {
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s src-sha256=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, sourceDigest())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest identifies the code that was built: a SHA-256 over every
// .go file and go.mod under the working directory (the repository
// root), skipping hidden directories.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
