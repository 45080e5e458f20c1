package spoofscope

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
