package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// Pkg is one loaded, type-checked module package.
type Pkg struct {
	Path   string
	Dir    string
	Target bool // named by the patterns (findings reported); deps carry facts only
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Prog   *Program

	goFiles    []string // absolute source paths, go list order
	imports    []string // module-internal imports
	exportBase string   // basename of the export file (content-addressed by the build cache)
	cached     *cacheEntry
}

// Program is a whole-module analysis universe: every module package
// reachable from the requested patterns, in dependency order, plus the
// per-package function summaries computed bottom-up over that order.
type Program struct {
	Dir    string
	Module string
	Fset   *token.FileSet
	Pkgs   []*Pkg // dependency order (deps before dependents)
	byPath map[string]*Pkg
	facts  map[string]*PkgFacts
	cache  *cache
}

// LoadOptions configures LoadProgram.
type LoadOptions struct {
	// CacheDir enables the per-package result cache rooted there
	// (keyed by export-data hash; see cache.go). Empty disables it.
	CacheDir string
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path string }
}

// LoadProgram resolves patterns (e.g. "./...") in the module rooted at
// dir and builds the analysis program: every matched package plus its
// module-internal dependencies, parsed and type-checked in parallel
// against the toolchain's export data (shelling out to `go list -deps
// -export -json`, exactly like go vet's driver — no module machinery
// of our own, no non-stdlib imports). Packages with a valid cache
// entry skip parsing and type-checking entirely.
func LoadProgram(dir string, patterns []string, opts LoadOptions) (*Program, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, errb.String())
	}

	prog := &Program{
		Dir:    dir,
		Fset:   token.NewFileSet(),
		byPath: map[string]*Pkg{},
		facts:  map[string]*PkgFacts{},
	}
	if opts.CacheDir != "" {
		prog.cache = &cache{dir: opts.CacheDir}
	}

	exports := map[string]string{} // import path -> export file
	dec := json.NewDecoder(&out)
	for dec.More() {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if e.Standard || e.Module == nil || len(e.GoFiles) == 0 {
			continue
		}
		if prog.Module == "" && !e.DepOnly {
			prog.Module = e.Module.Path
		}
		p := &Pkg{
			Path:       e.ImportPath,
			Dir:        e.Dir,
			Target:     !e.DepOnly,
			Fset:       prog.Fset,
			Prog:       prog,
			exportBase: filepath.Base(e.Export),
		}
		for _, name := range e.GoFiles {
			p.goFiles = append(p.goFiles, filepath.Join(e.Dir, name))
		}
		p.imports = e.Imports
		prog.Pkgs = append(prog.Pkgs, p) // go list -deps emits deps first
		prog.byPath[p.Path] = p
	}
	if len(prog.Pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}

	// Restrict each package's import list to module-internal packages
	// we actually loaded — the facts scheduler's dependency edges.
	for _, p := range prog.Pkgs {
		var mod []string
		for _, imp := range p.imports {
			if _, ok := prog.byPath[imp]; ok {
				mod = append(mod, imp)
			}
		}
		p.imports = mod
	}

	// Resolve cache hits up front: a hit skips parse + type-check.
	if prog.cache != nil {
		for _, p := range prog.Pkgs {
			if e, ok := prog.cache.get(p.cacheKey()); ok {
				p.cached = e
			}
		}
	}

	if err := prog.parseAndCheck(exports); err != nil {
		return nil, err
	}
	prog.computeAllFacts()
	return prog, nil
}

// isModulePkg reports whether path is a module-internal package loaded
// into this program.
func (prog *Program) isModulePkg(path string) bool {
	_, ok := prog.byPath[path]
	return ok
}

// FuncFacts returns the summary of the named function in the named
// package, or nil when unknown (dynamic call, unparsed package).
func (prog *Program) FuncFacts(pkgPath, id string) *FuncFacts {
	pf := prog.facts[pkgPath]
	if pf == nil {
		return nil
	}
	return pf.Funcs[id]
}

// FactsOf resolves fn to its summary, nil when unknown.
func (prog *Program) FactsOf(fn *types.Func) *FuncFacts {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	return prog.FuncFacts(fn.Pkg().Path(), funcID(fn))
}

// lockedImporter serializes Import calls: the gc importer caches
// packages in shared maps that are not safe for concurrent use, while
// the type-checks driving it run in parallel.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (li *lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.imp.Import(path)
}

// parseAndCheck parses and type-checks every non-cached package, in
// parallel. Each package checks against export data for its imports
// (never against our own in-progress type-checks), so package checks
// are mutually independent.
func (prog *Program) parseAndCheck(exports map[string]string) error {
	imp := &lockedImporter{imp: importer.ForCompiler(prog.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})}

	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for _, p := range prog.Pkgs {
		if p.cached != nil {
			continue
		}
		wg.Add(1)
		go func(p *Pkg) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var files []*ast.File
			for _, path := range p.goFiles {
				f, err := parser.ParseFile(prog.Fset, path, nil, parser.ParseComments)
				if err != nil {
					fail(fmt.Errorf("lint: parsing %s: %v", path, err))
					return
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Defs:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
				Instances:  map[*ast.Ident]types.Instance{},
			}
			conf := types.Config{Importer: imp}
			tpkg, err := conf.Check(p.Path, prog.Fset, files, info)
			if err != nil {
				fail(fmt.Errorf("lint: type-checking %s: %v", p.Path, err))
				return
			}
			p.Files = files
			p.Types = tpkg
			p.Info = info
		}(p)
	}
	wg.Wait()
	return firstErr
}

// computeAllFacts runs the bottom-up facts pass: packages analyze in
// parallel, each gated on its module-internal imports (the import DAG
// is the schedule). Cached packages contribute their saved facts.
//
// Every package's facts slot is allocated before the fan-out, so the
// map itself is never written concurrently; each goroutine fills only
// its own slot, and a package reads its dependencies' slots (through
// FuncFacts) only after their done channels have closed, which orders
// every read after the write it observes.
func (prog *Program) computeAllFacts() {
	done := map[string]chan struct{}{}
	for _, p := range prog.Pkgs {
		done[p.Path] = make(chan struct{})
		prog.facts[p.Path] = &PkgFacts{}
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, p := range prog.Pkgs {
		wg.Add(1)
		go func(p *Pkg, slot *PkgFacts) {
			defer wg.Done()
			for _, imp := range p.imports {
				<-done[imp]
			}
			sem <- struct{}{}
			if p.cached != nil {
				*slot = *p.cached.facts()
			} else {
				*slot = *computeFacts(p)
			}
			<-sem
			close(done[p.Path])
		}(p, prog.facts[p.Path])
	}
	wg.Wait()
}
