package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"lonviz/internal/netsim"
)

// fingerprint stamps a result with the host and source it came from, so
// results from different machines or commits are never compared by
// accident.
type fingerprint struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	LAN          string `json:"lan_profile"`
	WAN          string `json:"wan_profile"`
}

func takeFingerprint(w workload, seed int64, seconds int, trace bool, lan, wan netsim.LinkProfile) fingerprint {
	return fingerprint{
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceDigest: sourceDigest("."),
		LAN:          describeProfile(lan),
		WAN:          describeProfile(wan),
	}
}

func describeProfile(p netsim.LinkProfile) string {
	return fmt.Sprintf("%s latency=%v bandwidth=%dB/s shared=%v", p.Name, p.Latency, p.Bandwidth, p.Shared)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// gitCommit resolves HEAD from the .git directory under root without
// running git; outside a git checkout it returns "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root,
// skipping dot-directories, so a checkout without git history still
// names the code it measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
