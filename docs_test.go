package palmsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The documents whose Go identifiers and command flags must exist in
// the code.
var checkedDocs = []string{"README.md", "DESIGN.md"}

// typeKey names a type by its package clause name and type name.
type typeKey struct{ pkg, name string }

// moduleDecls indexes the declarations of the module's non-test Go
// files.
type moduleDecls struct {
	pkgs    map[string]map[string]bool  // package name -> top-level names
	members map[typeKey]map[string]bool // methods, struct fields, interface methods
	embeds  map[typeKey][]typeKey       // embedded or aliased types, whose members are promoted
	flags   map[string]map[string]bool  // package directory -> flags it defines
	adds    map[string]map[string]bool  // package directory -> packages whose AddFlags it calls
	dirs    map[string]string           // package name -> directory, for AddFlags lookups
}

// parseModule parses every non-test Go file under the module root,
// skipping nested modules (bench/ has its own go.mod) and testdata.
func parseModule(t *testing.T) *moduleDecls {
	t.Helper()
	d := &moduleDecls{
		pkgs:    map[string]map[string]bool{},
		members: map[typeKey]map[string]bool{},
		embeds:  map[typeKey][]typeKey{},
		flags:   map[string]map[string]bool{},
		adds:    map[string]map[string]bool{},
		dirs:    map[string]string{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
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
		d.addFile(filepath.Dir(path), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *moduleDecls) addFile(dir string, f *ast.File) {
	pkg := f.Name.Name
	d.dirs[pkg] = dir
	if d.pkgs[pkg] == nil {
		d.pkgs[pkg] = map[string]bool{}
	}
	member := func(k typeKey, name string) {
		if d.members[k] == nil {
			d.members[k] = map[string]bool{}
		}
		d.members[k][name] = true
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.pkgs[pkg][decl.Name.Name] = true
			} else if recv, ok := typeRef(pkg, decl.Recv.List[0].Type); ok {
				member(recv, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.pkgs[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					d.pkgs[pkg][spec.Name.Name] = true
					k := typeKey{pkg, spec.Name.Name}
					var fields *ast.FieldList
					switch ty := spec.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					default:
						if to, ok := typeRef(pkg, ty); ok {
							d.embeds[k] = append(d.embeds[k], to)
						}
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(k, n.Name)
						}
						if len(fld.Names) == 0 {
							if to, ok := typeRef(pkg, fld.Type); ok {
								member(k, to.name)
								d.embeds[k] = append(d.embeds[k], to)
							}
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		x, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case x.Name == "flag" && flagDefiner.MatchString(sel.Sel.Name):
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					if d.flags[dir] == nil {
						d.flags[dir] = map[string]bool{}
					}
					d.flags[dir][name] = true
					break
				}
			}
		case sel.Sel.Name == "AddFlags":
			if d.adds[dir] == nil {
				d.adds[dir] = map[string]bool{}
			}
			d.adds[dir][x.Name] = true
		}
		return true
	})
}

// flagDefiner matches the flag package's flag-defining functions.
var flagDefiner = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|Text)?(Var)?$`)

// typeRef resolves a receiver, embedded field or alias target to the
// type it names: T, *T, T[P], pkg.T.
func typeRef(pkg string, e ast.Expr) (typeKey, bool) {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeRef(pkg, e.X)
	case *ast.IndexExpr:
		return typeRef(pkg, e.X)
	case *ast.IndexListExpr:
		return typeRef(pkg, e.X)
	case *ast.Ident:
		return typeKey{pkg, e.Name}, true
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return typeKey{x.Name, e.Sel.Name}, true
		}
	}
	return typeKey{}, false
}

// hasMember reports whether type k has member name, directly or
// promoted through an embedded or aliased type.
func (d *moduleDecls) hasMember(k typeKey, name string, seen map[typeKey]bool) bool {
	if seen[k] {
		return false
	}
	seen[k] = true
	if d.members[k][name] {
		return true
	}
	for _, e := range d.embeds[k] {
		if d.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// anyTypeHasMember reports whether some type of the module called
// typeName has member name.
func (d *moduleDecls) anyTypeHasMember(typeName, name string) bool {
	for pkg := range d.pkgs {
		k := typeKey{pkg, typeName}
		if d.pkgs[pkg][typeName] && d.hasMember(k, name, map[typeKey]bool{}) {
			return true
		}
	}
	return false
}

// declared reports whether any package of the module declares name at
// top level.
func (d *moduleDecls) declared(name string) bool {
	for _, names := range d.pkgs {
		if names[name] {
			return true
		}
	}
	return false
}

// docSpan is one backticked span of a document, with the line it
// starts on.
type docSpan struct {
	text string
	line int
}

// readDoc returns a document's lines and its inline code spans; spans
// may wrap lines, and fenced code blocks hold none.
func readDoc(t *testing.T, name string) ([]string, []docSpan) {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	prose := make([]string, len(lines))
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose[i] = l
		}
	}
	text := strings.Join(prose, "\n")
	var spans []docSpan
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatchIndex(text, -1) {
		spans = append(spans, docSpan{
			text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
			line: 1 + strings.Count(text[:m[0]], "\n"),
		})
	}
	return lines, spans
}

var (
	// docIdent is a backticked Go identifier: pkg.Name, pkg.Type.Member
	// or Type.Member, with an optional leading * and trailing (...).
	docIdent = regexp.MustCompile(`^\*?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2})(?:\(.*\))?$`)
	// docFlag is a command-line flag token.
	docFlag = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	// goRun finds a `go run ./cmd/X` invocation.
	goRun = regexp.MustCompile(`go run \./cmd/(\w+)`)
)

func exported(name string) bool { return name[0] >= 'A' && name[0] <= 'Z' }

// staleIdent returns why a backticked span names a Go identifier the
// module does not declare, or "" when it is declared or is not a
// checked identifier form.
func (d *moduleDecls) staleIdent(span string) string {
	m := docIdent.FindStringSubmatch(span)
	if m == nil {
		return ""
	}
	parts := strings.Split(m[1], ".")
	switch {
	case d.pkgs[parts[0]] != nil && len(parts) == 2:
		if exported(parts[1]) && !d.pkgs[parts[0]][parts[1]] {
			return "package " + parts[0] + " declares no " + parts[1]
		}
	case d.pkgs[parts[0]] != nil:
		if !exported(parts[1]) || !exported(parts[2]) {
			return ""
		}
		if !d.pkgs[parts[0]][parts[1]] {
			return "package " + parts[0] + " declares no " + parts[1]
		}
		if !d.hasMember(typeKey{parts[0], parts[1]}, parts[2], map[typeKey]bool{}) {
			return parts[0] + "." + parts[1] + " has no member " + parts[2]
		}
	case len(parts) == 2 && (exported(parts[0]) || d.declared(parts[0])):
		if exported(parts[1]) && !d.anyTypeHasMember(parts[0], parts[1]) {
			return "no type " + parts[0] + " with member " + parts[1]
		}
	}
	return ""
}

// TestDocsNameDefinedIdentifiers: every backticked pkg.Name,
// pkg.Type.Member or Type.Member in README.md and DESIGN.md whose name
// after the package or type is exported is declared by the module's
// non-test code, as a top-level name, a method, a struct field or an
// interface method. Lowercase forms (metric names such as
// m68k.spec.share, file names such as obs.go) and packages outside the
// module are not checked.
func TestDocsNameDefinedIdentifiers(t *testing.T) {
	d := parseModule(t)
	for _, doc := range checkedDocs {
		_, spans := readDoc(t, doc)
		for _, s := range spans {
			if why := d.staleIdent(s.text); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, s.line, s.text, why)
			}
		}
	}
}

// commandFlags returns the flags each command under cmd/ defines,
// including those of the packages whose AddFlags it calls.
func (d *moduleDecls) commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	ents, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]map[string]bool{}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join("cmd", e.Name())
		flags := map[string]bool{"h": true, "help": true}
		for f := range d.flags[dir] {
			flags[f] = true
		}
		for pkg := range d.adds[dir] {
			for f := range d.flags[d.dirs[pkg]] {
				flags[f] = true
			}
		}
		cmds[e.Name()] = flags
	}
	return cmds
}

// undefinedFlags returns the flags of one command invocation that the
// command does not define. The invocation ends at a shell operator or a
// closing backtick.
func undefinedFlags(flags map[string]bool, args string) []string {
	if i := strings.IndexAny(args, "|;&<>)`#"); i >= 0 {
		args = args[:i]
	}
	var bad []string
	for _, m := range docFlag.FindAllStringSubmatch(args, -1) {
		if !flags[m[1]] {
			bad = append(bad, "-"+m[1])
		}
	}
	return bad
}

// TestDocsNameDefinedFlags: every flag on a `go run ./cmd/X` line of
// README.md and DESIGN.md, and every flag in a backticked span that
// starts with a command's name, is defined by that command, directly or
// through obs.AddFlags and prof.AddFlags.
func TestDocsNameDefinedFlags(t *testing.T) {
	d := parseModule(t)
	cmds := d.commandFlags(t)
	for _, doc := range checkedDocs {
		lines, spans := readDoc(t, doc)
		for i := 0; i < len(lines); i++ {
			line, n := lines[i], i+1
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for _, m := range goRun.FindAllStringSubmatchIndex(line, -1) {
				cmd := line[m[2]:m[3]]
				flags, ok := cmds[cmd]
				if !ok {
					t.Errorf("%s:%d: go run ./cmd/%s: no such command", doc, n, cmd)
					continue
				}
				if bad := undefinedFlags(flags, line[m[1]:]); bad != nil {
					t.Errorf("%s:%d: %s does not define %s", doc, n, cmd, strings.Join(bad, ", "))
				}
			}
		}
		for _, s := range spans {
			cmd, args, _ := strings.Cut(s.text, " ")
			if flags, ok := cmds[cmd]; ok {
				if bad := undefinedFlags(flags, args); bad != nil {
					t.Errorf("%s:%d: `%s`: %s does not define %s", doc, s.line, s.text, cmd, strings.Join(bad, ", "))
				}
			}
		}
	}
}
