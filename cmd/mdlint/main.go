// Command mdlint is the repository's static check (`make lint`, gating
// in CI). It type-checks the module and the nested benchmark/ module
// from source once, the standard library from `go list -export` data,
// and applies three rules: no exported API without a non-test use
// (deadAPI), the executor seam of docs/engines.md (seam), and a package
// doc comment of two lines or more under internal/ and cmd/ (docs).
// Run it from the repository root.
package main

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
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// allowlist is the exported API that stays with no non-test use, keyed
// pkg.Name or pkg.Type.Method: oracles the tests of several packages
// share. An entry deadAPI no longer flags fails the lint.
var allowlist = map[string]string{
	"psa.SerialRefs":           "single-goroutine reference the engine conformance tests compare against",
	"graph.CheckLabels":        "canonical-labelling oracle the graph and leaflet tests share",
	"synth.Adversarial":        "generator of the hausdorff and engine differential fuzz targets",
	"synth.PathEnsemble":       "ensemble the hausdorff tests and BENCH_psa.json counters run on",
	"traj.Trajectory.IsPacked": "lets jobs tests assert a runner packs before its timed tasks",
	"faultinject.Deactivate":   "disarms injected faults between tests in five packages",
	"jobs.NewExecutor":         "conformtest runs leaflet.Run on each engine through the table",
	"leaflet.Equal":            "label-equality check the Leaflet tests of five packages compare with",
	"linalg.Centroid":          "reference the traj packing tests compare per-frame centroids against",
}

const mod = "mdtask/internal/"

func main() {
	problems, err := lint(allowlist, ".", "benchmark")
	if err != nil {
		problems = []string{err.Error()}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "mdlint:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Println("mdlint: OK — no dead API, the executor seam holds, every package is documented")
}

// pkg is a package as `go list -json` describes it, and its source.
type pkg struct {
	Dir, ImportPath, Name, Export      string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
	files                              []*ast.File
	info                               *types.Info
	types                              *types.Package
}

// lint checks the modules in dirs, the main module first, and returns
// one line per problem.
func lint(allow map[string]string, dirs ...string) ([]string, error) {
	pkgs, err := goList(dirs)
	if err != nil {
		return nil, err
	}
	// Check each package once from source, dependencies first as `go
	// list -deps` orders them; the standard library is export data.
	fset := token.NewFileSet()
	byPath := map[string]*pkg{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := byPath[path]; p != nil {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("go list did not list %s", path)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil && p.types != nil {
			return p.types, nil
		}
		return gc.Import(path)
	})}
	var src []*pkg
	for _, p := range pkgs {
		if byPath[p.ImportPath] != nil {
			continue
		}
		byPath[p.ImportPath] = p
		if p.Standard {
			continue
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if p.types, err = conf.Check(p.ImportPath, fset, p.files, p.info); err != nil {
			return nil, err
		}
		src = append(src, p)
	}
	problems := append(seam(src), deadAPI(fset, src, allow)...)
	for _, p := range src {
		if strings.HasPrefix(p.ImportPath, mod) || strings.HasPrefix(p.ImportPath, "mdtask/cmd/") {
			problems = append(problems, docs(fset, p)...)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList runs `go list -deps -export -json ./...` in each of dirs.
func goList(dirs []string) ([]*pkg, error) {
	var pkgs []*pkg
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			p := new(pkg)
			if err := dec.Decode(p); err != nil {
				return nil, fmt.Errorf("go list in %s: %v", dir, err)
			}
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// seam checks the non-test imports of pkgs: internal/psa and
// internal/leaflet import no engine (rdd, dask, mpi), and they and
// internal/stage not internal/obs, since task bodies run on
// engine.Executor and get engine.Env; at most one package, the engine
// table in internal/jobs, imports all three engines.
func seam(pkgs []*pkg) []string {
	var problems, tables []string
	for _, p := range pkgs {
		analysis := p.ImportPath == mod+"psa" || p.ImportPath == mod+"leaflet"
		engines := 0
		for _, i := range p.Imports {
			engine := i == mod+"rdd" || i == mod+"dask" || i == mod+"mpi"
			if engine {
				engines++
			}
			if engine && analysis || i == mod+"obs" && (analysis || p.ImportPath == mod+"stage") {
				problems = append(problems, p.ImportPath+" imports "+i+" — task bodies run on engine.Executor and are instrumented through engine.Env")
			}
		}
		if engines == 3 {
			tables = append(tables, p.ImportPath)
		}
	}
	if len(tables) > 1 {
		problems = append(problems, fmt.Sprintf("%d packages import all of rdd, dask and mpi (%s) — the engine table in internal/jobs must be the only dispatch point", len(tables), strings.Join(tables, ", ")))
	}
	return problems
}

// docs checks that p opens with a "Package <name>" or "Command <name>"
// doc comment of two lines or more, room for its role and its place in
// the pipeline; a package with only tests has it in a _test.go file.
func docs(fset *token.FileSet, p *pkg) []string {
	base := path.Base(p.ImportPath)
	for _, name := range slices.Concat(p.GoFiles, p.TestGoFiles, p.XTestGoFiles) {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return []string{err.Error()}
		}
		if text := f.Doc.Text(); strings.HasPrefix(text, "Package "+base) || strings.HasPrefix(text, "Command "+base) {
			if !strings.Contains(strings.TrimSpace(text), "\n") {
				return []string{p.ImportPath + ": package doc comment is a single line — state the package's role and pipeline place"}
			}
			return nil
		}
	}
	return []string{fmt.Sprintf("%s: no package doc comment (want \"// Package %s ...\" or \"// Command %s ...\")", p.ImportPath, base, base)}
}

// deadAPI reports each exported func, method, var, const and type of a
// non-main package that no non-test file uses (types.Info.Uses), and
// each allowlist entry it does not flag. A method also counts as used
// when its type satisfies an interface with a method of that name
// (String, Error, ServeHTTP).
func deadAPI(fset *token.FileSet, pkgs []*pkg, allow map[string]string) []string {
	// A package that only _test.go files import may export freely, and
	// its own uses count for none.
	inCode, inTests := map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		for _, i := range p.Imports {
			inCode[i] = true
		}
		for _, i := range slices.Concat(p.TestImports, p.XTestImports) {
			inTests[i] = true
		}
	}
	// The uses, and the scopes whose interfaces a method may satisfy.
	uses := map[types.Object]int{}
	scopes := map[*types.Scope]bool{types.Universe: true}
	var api []*pkg
	for _, p := range pkgs {
		if inTests[p.ImportPath] && !inCode[p.ImportPath] {
			continue
		}
		if p.Name != "main" {
			api = append(api, p)
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			uses[obj]++
		}
		for _, i := range append(p.types.Imports(), p.types) {
			scopes[i.Scope()] = true
		}
	}

	dead := map[string]types.Object{}
	for _, p := range api {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			receivers := 0 // each method's receiver names its type once
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := obj.Type().(*types.Named)
				receivers = named.NumMethods()
				for i := 0; i < receivers; i++ {
					if m := named.Method(i); m.Exported() && uses[m] == 0 && !satisfies(named, m.Name(), scopes) {
						dead[p.Name+"."+name+"."+m.Name()] = m
					}
				}
			}
			if uses[obj] <= receivers {
				dead[p.Name+"."+name] = obj
			}
		}
	}
	var problems []string
	for key, obj := range dead {
		if allow[key] == "" {
			problems = append(problems, fmt.Sprintf("%s (%s) has no use outside its declaration and tests", key, fset.Position(obj.Pos())))
		}
	}
	for key := range allow {
		if dead[key] == nil {
			problems = append(problems, "allowlist entry "+key+" is used or gone; drop it")
		}
	}
	return problems
}

// satisfies reports whether *named implements an interface of one of
// scopes that has a method called method.
func satisfies(named *types.Named, method string, scopes map[*types.Scope]bool) bool {
	for scope := range scopes {
		for _, name := range scope.Names() {
			it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface)
			for i := 0; ok && i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
	}
	return false
}
