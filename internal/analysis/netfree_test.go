package analysis_test

import (
	"errors"
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e3/internal/analysis"
)

// netAllowed are the only packages that may reach the network stack: the
// HTTP API and the server that mounts it.
var netAllowed = map[string]bool{
	"e3/internal/httpapi": true,
	"e3/cmd/e3-serve":     true,
}

// netForbidden are the packages whose presence links the network stack
// or cgo (and with it a dynamic libc) into a binary.
var netForbidden = map[string]bool{"net": true, "runtime/cgo": true}

// TestSimulationBinariesStayOffNetwork fails, naming the import chain,
// when a package under internal/, cmd/, examples/ or benchmark/ other than
// netAllowed depends on net or runtime/cgo, directly or transitively. The
// simulator, its benches, its examples and the benchmark are pure
// computation: keeping the network stack out of them keeps their binaries
// static, cgo-free and without the HTTP and TLS code's resident pages. The
// graph is read with go/build as the default cgo-enabled build sees it,
// whatever this host's CGO_ENABLED, and a package with cgo files counts
// as importing runtime/cgo.
func TestSimulationBinariesStayOffNetwork(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewModuleLoader(wd)
	if err != nil {
		t.Fatal(err)
	}
	g := &importGraph{root: loader.Root(), ctxt: build.Default, imports: map[string][]string{}}
	g.ctxt.CgoEnabled = true
	if g.ctxt.GOROOT == "" {
		t.Fatal("go/build reports no GOROOT: the standard library's imports cannot be read")
	}

	var roots []string
	for _, top := range []string{"internal", "cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(filepath.Join(g.root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(g.root, path)
			if err != nil {
				return err
			}
			ip := "e3/" + filepath.ToSlash(rel)
			if _, err := g.deps(ip); err != nil {
				var noGo *build.NoGoError
				if errors.As(err, &noGo) {
					return nil
				}
				return err
			}
			roots = append(roots, ip)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(roots) < 20 {
		t.Fatalf("found only %d packages under %s: the walk is broken", len(roots), g.root)
	}

	for _, ip := range roots {
		if netAllowed[ip] {
			continue
		}
		chain, err := g.chainTo(ip, netForbidden)
		if err != nil {
			t.Fatalf("%s: %v", ip, err)
		}
		if chain != nil {
			t.Errorf("%s links %s: %s", ip, chain[len(chain)-1], strings.Join(chain, " -> "))
		}
	}
}

// importGraph reads non-test imports through go/build, memoized by import
// path. In-module paths resolve under root, everything else under GOROOT
// (or its vendor tree, where the standard library keeps its own
// dependencies).
type importGraph struct {
	root    string
	ctxt    build.Context
	imports map[string][]string
}

func (g *importGraph) deps(ip string) ([]string, error) {
	if deps, ok := g.imports[ip]; ok {
		return deps, nil
	}
	var dir string
	if rel, ok := strings.CutPrefix(ip, "e3/"); ok {
		dir = filepath.Join(g.root, filepath.FromSlash(rel))
	} else {
		dir = filepath.Join(g.ctxt.GOROOT, "src", filepath.FromSlash(ip))
		if _, err := os.Stat(dir); err != nil {
			dir = filepath.Join(g.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(ip))
		}
	}
	pkg, err := g.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var deps []string
	for _, imp := range pkg.Imports {
		if imp != "C" {
			deps = append(deps, imp)
		}
	}
	if len(pkg.CgoFiles) > 0 {
		deps = append(deps, "runtime/cgo")
	}
	g.imports[ip] = deps
	return deps, nil
}

// chainTo returns the shortest import chain from ip to a package in
// targets, or nil if ip reaches none.
func (g *importGraph) chainTo(ip string, targets map[string]bool) ([]string, error) {
	parent := map[string]string{ip: ""}
	for queue := []string{ip}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		if targets[cur] {
			var chain []string
			for p := cur; p != ""; p = parent[p] {
				chain = append([]string{p}, chain...)
			}
			return chain, nil
		}
		deps, err := g.deps(cur)
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			if _, seen := parent[d]; !seen {
				parent[d] = cur
				queue = append(queue, d)
			}
		}
	}
	return nil, nil
}
