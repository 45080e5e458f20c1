package spoofscope

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// goDecls is what the tree's non-test Go declares, by bare name: each
// package's top-level names, and each type's methods, fields and the types
// it embeds or aliases (a promoted member resolves through them).
type goDecls struct {
	pkgs    map[string]map[string]bool // package name -> top-level names
	members map[string]map[string]bool // type name -> methods and fields
	embeds  map[string][]string        // type name -> embedded or aliased types
}

func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	}
	return ""
}

func parseDecls(t *testing.T) *goDecls {
	d := &goDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || path == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		top := d.pkgs[f.Name.Name]
		if top == nil {
			top = map[string]bool{}
			d.pkgs[f.Name.Name] = top
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				} else {
					top[decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							top[n.Name] = true
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						top[name] = true
						if spec.Assign.IsValid() {
							d.embeds[name] = append(d.embeds[name], typeName(spec.Type))
						}
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, fld := range st.Fields.List {
							if len(fld.Names) == 0 {
								emb := typeName(fld.Type)
								member(name, emb)
								d.embeds[name] = append(d.embeds[name], emb)
							}
							for _, n := range fld.Names {
								member(name, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// isType reports whether some package declares a type (or alias) name.
func (d *goDecls) isType(name string) bool {
	return d.members[name] != nil || d.embeds[name] != nil
}

// hasMember resolves typ.name through typ's own methods and fields, then
// through every type it embeds or aliases.
func (d *goDecls) hasMember(typ, name string) bool {
	seen := map[string]bool{}
	queue := []string{typ}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if seen[t] {
			continue
		}
		seen[t] = true
		if d.members[t][name] {
			return true
		}
		queue = append(queue, d.embeds[t]...)
	}
	return false
}

// docIdent is a dotted Go name in a doc span: pkg.Name, pkg.Type.Member or
// Type.Member. A trailing file extension makes it a file name instead, which
// docs-check resolves separately.
var (
	docSpan   = regexp.MustCompile("`[^`\n]*`")
	docIdent  = regexp.MustCompile(`(?:^|[^\w./-])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2})(?:$|[^\w./-])`)
	fileTails = map[string]bool{"go": true, "json": true, "md": true, "sh": true, "yml": true, "mod": true,
		"ckpt": true, "ledger": true, "txt": true, "csv": true, "mrt": true, "ipfix": true, "pprof": true, "id": true}
)

// TestDocSpansResolve is docs-check's Go half: every backticked pkg.Func,
// pkg.Type.Method and Type.Method in the documents that describe the tree as
// it is names something the tree's non-test Go declares. A member resolves
// on the type itself or on a type it embeds or aliases, so a promoted method
// is found where it is written. A lowercase first name that is neither a
// package nor a type is a variable in a code fragment, and is skipped; a
// repository-benchmark metric (ipfix.decode_ns_per_flow) resolves against
// BENCHMARK.json.
func TestDocSpansResolve(t *testing.T) {
	d := parseDecls(t)
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, span := range docSpan.FindAllString(string(b), -1) {
			for _, m := range docIdent.FindAllStringSubmatch(span, -1) {
				id := m[1]
				parts := strings.Split(id, ".")
				if seen[id] || metrics[id] || fileTails[parts[len(parts)-1]] {
					continue
				}
				seen[id] = true
				first := parts[0]
				var ok bool
				switch {
				case d.pkgs[first] != nil:
					ok = d.pkgs[first][parts[1]] && (len(parts) == 2 || d.hasMember(parts[1], parts[2]))
				case len(parts) == 2 && (d.isType(first) || unicode.IsUpper(rune(first[0]))):
					ok = d.hasMember(first, parts[1])
				default:
					ok = true
				}
				if !ok {
					t.Errorf("%s: `%s` is not declared in the tree's non-test Go", doc, id)
				}
			}
		}
	}
}

// listedPkg is the part of `go list -json` the test-only-API guard reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// listPackages runs `go list -export -deps` in each module directory and
// returns every package once, dependencies before their importers.
func listPackages(t *testing.T, dirs ...string) []listedPkg {
	var pkgs []listedPkg
	seen := map[string]bool{}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for dec.More() {
			var p listedPkg
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs
}

// testOnlyAllowlist names the exported internal/ functions and methods that
// no non-test Go calls and that stay anyway, each with its reason. A method
// is written pkg.Type.Method, a function pkg.Func.
var testOnlyAllowlist = map[string]string{
	"ipfix.ListenUDP":               "live deployment: the UDP collector, which tests drive",
	"ipfix.UDPCollector.Addr":       "live deployment: the UDP collector, which tests drive",
	"ipfix.UDPCollector.ServeBatch": "live deployment: the UDP collector, which tests drive",
	"ipfix.UDPCollector.Shutdown":   "live deployment: the UDP collector, which tests drive",
	"ipfix.UDPCollector.Stats":      "live deployment: the UDP collector, which tests drive",
	"ipfix.DialUDP":                 "live deployment: the exporter that drives the UDP collector",
	"ipfix.UDPExporter.Export":      "live deployment: the exporter that drives the UDP collector",
	"ipfix.DialTCP":                 "live deployment: the exporter that drives the TCP collector",
	"ipfix.TCPExporter.Export":      "live deployment: the exporter that drives the TCP collector",
	"bgp.Dial":                      "live deployment: the BGP peer that tests drive the feed with",
	"bgp.Session.Send":              "live deployment: how every test peer sends UPDATEs",
	"bgp.Session.PeerAS":            "live deployment: the BGP peer that tests drive the feed with",
	"bgp.Session.HoldTime":          "live deployment: the BGP peer that tests drive the feed with",
	"bgp.Session.Stats":             "live deployment: the BGP peer that tests drive the feed with",
	"netx.MustParseAddr":            "the twin of MustParsePrefix; tests in a dozen packages use it",
	"whois.Parse":                   "reads the whois.txt that cmd/ixpgen writes",
}

// TestNoTestOnlyAPI keeps production code to what something runs: every
// exported function or method in internal/ must be named by non-test Go of
// this module or the nested benchmark module, outside its own body. The
// non-test files are type-checked from source (imports outside the two
// modules come from `go list -export` data), so a method is matched by its
// receiver type, not by a bare name that another type's Len or Clone would
// hide. A method that implements an interface declared in any loaded
// package is called through it and is exempt, as is internal/faultnet, which
// only tests import; anything else that stays is in testOnlyAllowlist.
func TestNoTestOnlyAPI(t *testing.T) {
	pkgs := listPackages(t, ".", "benchmark")
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	loaded := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := loaded[path]; p != nil {
			return p, nil
		}
		p, err := gc.Import(path)
		if err == nil {
			loaded[path] = p
		}
		return p, err
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var decls []*ast.FuncDecl
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		loaded[p.ImportPath] = tp
		if !strings.Contains(p.ImportPath, "/internal/") || strings.HasSuffix(p.ImportPath, "/internal/faultnet") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, fd)
				}
			}
		}
	}

	uses := map[*types.Func][]token.Pos{}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
		}
	}
	var ifaces []*types.Interface
	for _, p := range loaded {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	implementsOne := func(recv *types.Named, method string) bool {
		if recv.TypeParams().Len() > 0 {
			return false // Implements is unspecified for an uninstantiated type
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	allowed := map[string]bool{}
	for _, fd := range decls {
		fn := info.Defs[fd.Name].(*types.Func)
		called := false
		for _, pos := range uses[fn] {
			if pos < fd.Pos() || pos >= fd.End() {
				called = true
				break
			}
		}
		if called {
			continue
		}
		id := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named := rt.(*types.Named)
			if implementsOne(named, fn.Name()) {
				continue
			}
			id = fn.Pkg().Name() + "." + named.Obj().Name() + "." + fn.Name()
		}
		if _, ok := testOnlyAllowlist[id]; ok {
			allowed[id] = true
			continue
		}
		t.Errorf("%s: %s is exported but only tests call it", fset.Position(fd.Name.Pos()), id)
	}
	for id := range testOnlyAllowlist {
		if !allowed[id] {
			t.Errorf("testOnlyAllowlist: %s is not an exported internal/ function or method that only tests call", id)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
