package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"vmt"
)

// hostInfo records where a result was measured, so A/B results are only
// compared on the same host. Everything is read from the process and
// the working directory (the checkout root).
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
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

// commit is the checked-out git commit when the working directory is a
// git checkout, and otherwise a digest of the Go sources, which names
// the code as exactly.
func commit() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name))); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}

// writeExpected computes expected.json: the outcome of each workload at
// its default seed.
func writeExpected(w io.Writer) error {
	var exp expectations
	for _, def := range workloads {
		in := inputs{def: def, seed: def.defaultSeed}
		if !def.stepped {
			rep, err := runSweep(in)
			if err != nil {
				return err
			}
			exp.FaultSweep = sweepExpect{Seed: in.seed, Rows: rep.rows}
			continue
		}
		res, err := vmt.Run(in.config())
		if err != nil {
			return err
		}
		got := steppedOutcome(in.seed, outputOf(res))
		switch def.name {
		case "paper-wa-1k":
			exp.PaperWA1k = got
		case "rr-16k":
			exp.RR16k = got
		}
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
