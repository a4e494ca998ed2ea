package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// heldOutSeed is reserved for validating a later performance claim: tune
// and develop a change on other seeds, then confirm the claim on this one.
const heldOutSeed = 7919

// collectMeta records what a result depends on besides the code: the
// host, the toolchain, the commit and the inputs.
func collectMeta(opts options) map[string]any {
	return map[string]any{
		"workload":      opts.workload,
		"seed":          opts.seed,
		"seconds":       opts.seconds,
		"trace":         opts.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": sourceDigest(),
		"held_out_seed": heldOutSeed,
	}
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

// gitCommit is the checkout's commit, or "unknown" when the checkout is not
// a git work tree of its own (an exported copy); source_sha256 identifies
// the code either way.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the module's Go sources and go.mod, in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS returns the memory the process no longer uses to the OS and
// resets its high-water resident set (VmHWM) to the current one, so that a
// later peakRSSMB covers only what runs after the reset: the system under
// load, not the set-up repetitions, references and fixtures the benchmark
// built before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteString("5"); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
}

var runtimeKeys = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// since stores the runtime layer's metrics: the change from r to now.
func (r runtimeSample) since(res *result) {
	now := readRuntime()
	frac := 0.0
	if d := now.totalCPU - r.totalCPU; d > 0 {
		frac = (now.gcCPU - r.gcCPU) / d
	}
	res.set("runtime.gc_cpu_frac", frac, "ratio")
	res.set("runtime.alloc_mb", float64(now.allocBytes-r.allocBytes)/(1<<20), "MB")
	res.set("runtime.gc_cycles", float64(now.gcCycles-r.gcCycles), "count")
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
