// Command flepvet runs the FLEP analyzer suite (internal/lint): the
// determinism, map-order, loop-purity, lock-discipline, and
// metric-hygiene contracts plus the interprocedural lock-order
// analyzer — mechanically enforced.
//
// Two modes share one driver:
//
//	flepvet ./...                          # standalone multichecker
//	go vet -vettool=$(which flepvet) ./... # unitchecker protocol
//
// The vettool mode speaks cmd/go's protocol by hand: -V=full prints a
// version line for the build cache, and a single *.cfg argument names
// a JSON config describing one package (sources, import map, export
// files) to analyze. Facts files (vetx) are written empty — the suite
// needs no cross-package facts; the one cross-package rule
// (metrichygiene's family coherence) runs whole-program in standalone
// mode and per-package under vet.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"flep/internal/lint"
	"flep/internal/lint/analysis"
	"flep/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("flepvet", flag.ExitOnError)
	version := fs.String("V", "", "print version and exit (go vet protocol; use -V=full)")
	checks := fs.String("checks", "", "comma-separated analyzer subset (default: all of "+strings.Join(lint.AnalyzerNames(), ",")+")")
	dir := fs.String("dir", ".", "directory to resolve package patterns from (standalone mode)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout (standalone mode)")
	annotate := fs.Bool("annotate", false, "emit GitHub Actions ::error annotations alongside findings (standalone mode)")
	baselinePath := fs.String("baseline", "", "committed baseline file; listed findings are tolerated, not failed (standalone mode)")
	// cmd/go probes vet tools with `-flags`, expecting a JSON array
	// describing which optional flags the tool accepts; it then passes
	// only those. The suite needs none, so the answer is empty.
	describeFlags := fs.Bool("flags", false, "print a JSON description of supported flags and exit (go vet protocol)")
	fs.Parse(args)

	if *version != "" {
		// cmd/go keys its build cache on this line and, for "devel"
		// tools, requires a trailing buildID= field (see toolID in
		// cmd/go/internal/work/buildid.go). Hash the executable so a
		// rebuilt flepvet invalidates cached vet results.
		id, err := selfHash()
		if err != nil {
			fmt.Fprintln(os.Stderr, "flepvet:", err)
			return 1
		}
		fmt.Printf("%s version devel (%s) buildID=%s\n", filepath.Base(os.Args[0]), runtime.Version(), id)
		return 0
	}
	if *describeFlags {
		fmt.Println("[]")
		return 0
	}

	selected, err := lint.Select(splitChecks(*checks))
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepvet:", err)
		return 1
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetCfg(rest[0], selected)
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(*dir, patterns, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepvet:", err)
		return 1
	}

	// Findings render relative to the resolution dir: the repo root in
	// the scripted invocations, which is what annotations and baseline
	// entries must key on.
	root, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepvet:", err)
		return 1
	}
	if *baselinePath != "" {
		bl, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flepvet:", err)
			return 1
		}
		var suppressed []lint.Finding
		findings, suppressed = bl.Filter(root, findings)
		if len(suppressed) > 0 {
			fmt.Fprintf(os.Stderr, "flepvet: %d finding(s) suppressed by baseline %s\n", len(suppressed), *baselinePath)
		}
	}

	if *jsonOut {
		if err := lint.EncodeJSON(os.Stdout, root, findings); err != nil {
			fmt.Fprintln(os.Stderr, "flepvet:", err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if *annotate {
		for _, f := range findings {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=flepvet %s/%s::%s\n",
				lint.RelPath(root, f.Pos.Filename), f.Pos.Line, f.Pos.Column,
				f.Analyzer, f.Category, escapeAnnotation(f.Message))
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flepvet: %d finding(s)\n", len(findings))
		return 2
	}
	return 0
}

// escapeAnnotation applies the workflow-command data escaping rules.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// selfHash fingerprints the running executable for the -V=full line.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	sum := h.Sum(nil)
	return fmt.Sprintf("%x/%x", sum[:16], sum[16:]), nil
}

func splitChecks(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// vetConfig is the JSON cmd/go writes for each package when invoking a
// vet tool (the unitchecker wire format).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetCfg analyzes the single package described by cfgPath.
func runVetCfg(cfgPath string, selected []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "flepvet: parse %s: %v\n", cfgPath, err)
		return 1
	}

	// cmd/go expects a facts file even from tools that produce none;
	// downstream packages' invocations receive it back untouched.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "flepvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	pkg, fset, err := typecheckVetCfg(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "flepvet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	findings, err := lint.RunPackages(fset, []*loader.Package{pkg}, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepvet:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// typecheckVetCfg parses and type-checks the cfg's package, resolving
// imports from the export files cmd/go already built.
func typecheckVetCfg(cfg *vetConfig) (*loader.Package, *token.FileSet, error) {
	fset := token.NewFileSet()
	files, err := loader.ParseFiles(fset, cfg.Dir, cfg.GoFiles)
	if err != nil {
		return nil, nil, err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if m, ok := cfg.ImportMap[path]; ok {
			path = m
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("flepvet: no export file for import %q", path)
		}
		return os.Open(file)
	}
	info := analysis.NewInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, compilerOrGC(cfg.Compiler), lookup),
	}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return &loader.Package{
		PkgPath: cfg.ImportPath, Dir: cfg.Dir,
		Files: files, Types: tpkg, Info: info,
	}, fset, nil
}

func compilerOrGC(c string) string {
	if c == "" {
		return "gc"
	}
	return c
}
