package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// flushPolicy states how the write path reaches storage: nothing
// calls fsync, so latencies are those of the page cache, not of a
// device.
const flushPolicy = "no fsync: commits are temp file plus rename; data stays in the page cache"

// hostInfo is the host block every result carries.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":    procField("/proc/cpuinfo", "model name"),
		"mem_total":    procField("/proc/meminfo", "MemTotal"),
		"flush_policy": flushPolicy,
	}
}

// procField returns the value of the first "key: value" line of a
// /proc file, or "unknown" where the file does not exist.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
