package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// PackageLOC is the line count of one package, partitioned by trust.
type PackageLOC struct {
	// Package is the import-path-relative package directory.
	Package string
	// Lines is the number of non-test Go source lines (excluding blank
	// lines and pure comment lines), matching how the paper counts LOC.
	Lines int
	// TestLines counts _test.go lines the same way.
	TestLines int
	// Trusted marks packages in SafeWeb's trusted codebase (§5.2): the
	// components a security audit must cover.
	Trusted bool
	// Tooling marks development tooling — benchmarks, analyzers, fault
	// injection: code that never runs in a deployment, so it is neither
	// audited nor protected. Everything else is application code whose
	// bugs SafeWeb contains.
	Tooling bool
}

// trustedPackages mirrors §5.2's trusted codebase: the taint tracking
// library, the event backend (engine/jail/broker and their substrates),
// the frontend check logic and the policy machinery. The MDT application
// (mdt, vulninject) is untrusted except for its privileged units, which
// the table below calls out separately.
var trustedPackages = map[string]bool{
	"internal/label":      true,
	"internal/event":      true,
	"internal/selector":   true,
	"internal/stomp":      true,
	"internal/broker":     true,
	"internal/journal":    true, // broker substrate: replay clearance trusts the label header it persists
	"internal/engine":     true,
	"internal/jail":       true,
	"internal/taint":      true,
	"internal/template":   true,
	"internal/webfront":   true,
	"internal/docstore":   true,
	"internal/webdb":      true,
	"internal/core":       true,
	"internal/labelmgr":   true, // edits the live policy: §5.2 "scripts that edit it must be audited"
	"internal/federation": true, // asserts labels across instance boundaries
	"internal/park":       true, // every backend wait: teardown and deadlines end them
}

// toolingPackages are the development-tooling trees (each entry covers
// its subpackages): the repo benchmark and the paper harness, the
// safeweb-vet analyzers and their driver, and the fault-injection net.
var toolingPackages = []string{
	"benchmark", "internal/bench", "internal/lint", "internal/faultnet",
	"cmd/safeweb-vet", "cmd/safeweb-bench",
}

func isTooling(pkg string) bool {
	for _, t := range toolingPackages {
		if pkg == t || strings.HasPrefix(pkg, t+"/") {
			return true
		}
	}
	return false
}

// CountLOC walks the repository rooted at root and returns per-package
// line counts (E7). Third-party code under vendor/ and analyzer fixtures
// under testdata/ are not SafeWeb source and are skipped, as the go tool
// skips them.
func CountLOC(root string) ([]PackageLOC, error) {
	perPkg := make(map[string]*PackageLOC)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = "(root)"
		}
		pkg, ok := perPkg[rel]
		if !ok {
			pkg = &PackageLOC{Package: rel, Trusted: trustedPackages[rel], Tooling: isTooling(rel)}
			perPkg[rel] = pkg
		}
		lines, err := countGoLines(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			pkg.TestLines += lines
		} else {
			pkg.Lines += lines
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: count loc: %w", err)
	}
	out := make([]PackageLOC, 0, len(perPkg))
	for _, pkg := range perPkg {
		out = append(out, *pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Package < out[j].Package })
	return out, nil
}

// countGoLines counts non-blank, non-comment-only lines.
func countGoLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
				if line == "" {
					continue
				}
			} else {
				continue
			}
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") && !strings.Contains(line, "*/") {
			inBlock = true
			continue
		}
		n++
	}
	return n, sc.Err()
}

// TCBSummary aggregates the E7 accounting.
type TCBSummary struct {
	// TrustedLines is the audited SafeWeb codebase (paper: taint lib
	// 1943 LOC + engine 1908 LOC).
	TrustedLines int
	// UntrustedLines is application code protected by the safety net
	// (paper: 2841 LOC of the MDT app needing no further audit).
	UntrustedLines int
	// ToolingLines is development tooling (benchmarks, analyzers, fault
	// injection), which the paper's accounting has no counterpart for.
	ToolingLines int
	// TestLines counts all test code.
	TestLines int
	// Packages is the per-package detail.
	Packages []PackageLOC
}

// Summarise computes the TCB summary for the repository at root.
func Summarise(root string) (TCBSummary, error) {
	pkgs, err := CountLOC(root)
	if err != nil {
		return TCBSummary{}, err
	}
	out := TCBSummary{Packages: pkgs}
	for _, p := range pkgs {
		out.TestLines += p.TestLines
		switch {
		case p.Trusted:
			out.TrustedLines += p.Lines
		case p.Tooling:
			out.ToolingLines += p.Lines
		default:
			out.UntrustedLines += p.Lines
		}
	}
	return out, nil
}
