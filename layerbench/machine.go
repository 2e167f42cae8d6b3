package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// machine is the metadata every record carries. Records whose NProc or
// GOMAXPROCS differ are not compared.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	// Commit identifies the code measured: the SHA-256 of every Go source
	// and module file of the checkout, since the benchmark runs in trees
	// that are not git repositories.
	Commit string `json:"commit"`
}

func describeMachine() (machine, error) {
	digest, err := sourceDigest(".")
	if err != nil {
		return machine{}, err
	}
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     "tree-sha256:" + digest,
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
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

// sourceDigest hashes the paths and contents of the Go sources and module
// files under root, skipping build output.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing the sources: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// referenceCounts holds, per workload, the exact work counts the corpus
// entries produced when the benchmark was defined ("entry/count": value).
//
//go:embed counts.json
var referenceCountsJSON []byte

// compareReference lists, by name, every count that differs from the
// reference. A changed count means the program now does different work on
// that input; it is reported as such, never folded into timing noise.
func compareReference(workload string, counts map[string]int64) []string {
	var ref map[string]map[string]int64
	if err := json.Unmarshal(referenceCountsJSON, &ref); err != nil {
		return []string{"reference counts unreadable: " + err.Error()}
	}
	var out []string
	for k, want := range ref[workload] {
		if got, ok := counts[k]; ok && got != want {
			out = append(out, fmt.Sprintf("changed count %s %s: reference %d, now %d", workload, k, want, got))
		}
	}
	sort.Strings(out)
	return out
}
