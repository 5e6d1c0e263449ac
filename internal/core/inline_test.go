package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
)

// TestHierarchicalCostInlines asks the compiler for its inlining
// decisions on this package and requires hierarchicalCost to be inlined
// where a placement's cost is added: in visit, in tail and in Eval. The
// search adds one cost per node, so a call there is paid on every node
// (DESIGN §10). It fails with the compiler's reason.
func TestHierarchicalCostInlines(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m=2", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	if why := regexp.MustCompile(`cannot inline hierarchicalCost: .*`).Find(out); why != nil {
		t.Fatalf("%s", why)
	}
	if !regexp.MustCompile(`can inline hierarchicalCost\b`).Match(out) {
		t.Fatalf("the compiler says nothing of inlining hierarchicalCost:\n%s", out)
	}

	// Each "inlining call" line names a file and line; the function
	// whose body holds that line is the call site.
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	inlined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(?:[\w./-]*/)?(\w+\.go):(\d+):\d+: inlining call to hierarchicalCost\b`).FindAllSubmatch(out, -1) {
		name := string(m[1])
		line, _ := strconv.Atoi(string(m[2]))
		f, ok := files[name]
		if !ok {
			if f, err = parser.ParseFile(fset, name, nil, 0); err != nil {
				t.Fatal(err)
			}
			files[name] = f
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fset.Position(fn.Pos()).Line <= line && line <= fset.Position(fn.End()).Line {
				inlined[fn.Name.Name] = true
			}
		}
	}
	for _, site := range []string{"visit", "tail", "Eval"} {
		if !inlined[site] {
			t.Errorf("hierarchicalCost is not inlined in %s (inlined in %v)", site, inlined)
		}
	}
}
