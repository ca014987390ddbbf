package llmservingsim

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportedAPI pins the package's exported surface: every exported
// name, the exported fields of each exported struct and each exported
// type's exported method set, listed one per line and compared with
// testdata/api.golden. A refactor that drops or retypes a public name
// fails here; an intended API change regenerates the golden with
// GOLDEN_UPDATE=1 and shows up in its diff.
func TestExportedAPI(t *testing.T) {
	fset := token.NewFileSet()
	pkg, err := importer.ForCompiler(fset, "source", nil).Import("repro")
	if err != nil {
		t.Fatal(err)
	}
	got := apiListing(pkg)
	golden := filepath.Join("testdata", "api.golden")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := lineSet(got)
	wantLines := lineSet(string(want))
	for _, l := range strings.Split(string(want), "\n") {
		if l != "" && !gotLines[l] {
			t.Errorf("API lost: %s", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && !wantLines[l] {
			t.Errorf("API gained: %s", l)
		}
	}
	t.Error("exported API differs from testdata/api.golden (GOLDEN_UPDATE=1 rewrites it)")
}

// apiListing renders pkg's exported surface, one sorted entry a line.
// Types from other packages are spelled by import path.
func apiListing(pkg *types.Package) string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Path()
	}
	typ := func(t types.Type) string { return types.TypeString(t, qual) }
	var b strings.Builder
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			b.WriteString("const " + name + " " + typ(obj.Type()) + "\n")
		case *types.Var:
			b.WriteString("var " + name + " " + typ(obj.Type()) + "\n")
		case *types.Func:
			b.WriteString("func " + name + strings.TrimPrefix(typ(obj.Type()), "func") + "\n")
		case *types.TypeName:
			writeTypeAPI(&b, obj, typ)
		}
	}
	return b.String()
}

// writeTypeAPI lists one exported type: its declaration, the exported
// fields of its struct and its exported methods, each method under the
// receiver form ((T) or (*T)) whose method set first holds it.
func writeTypeAPI(b *strings.Builder, obj *types.TypeName, typ func(types.Type) string) {
	name := obj.Name()
	t := obj.Type()
	switch {
	case obj.IsAlias():
		b.WriteString("type " + name + " = " + typ(types.Unalias(t)) + "\n")
	case types.IsInterface(t):
		b.WriteString("type " + name + " interface\n")
	default:
		if _, ok := t.Underlying().(*types.Struct); ok {
			b.WriteString("type " + name + " struct\n")
		} else {
			b.WriteString("type " + name + " " + typ(t.Underlying()) + "\n")
		}
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				b.WriteString("field " + name + "." + f.Name() + " " + typ(f.Type()) + "\n")
			}
		}
	}
	values := types.NewMethodSet(t)
	recv := map[string]string{}
	for i := range values.Len() {
		recv[values.At(i).Obj().Name()] = "(" + name + ")"
	}
	if !types.IsInterface(t) {
		ptrs := types.NewMethodSet(types.NewPointer(t))
		for i := range ptrs.Len() {
			if m := ptrs.At(i).Obj().Name(); recv[m] == "" {
				recv[m] = "(*" + name + ")"
			}
		}
		values = ptrs
	}
	for i := range values.Len() {
		m := values.At(i).Obj()
		if m.Exported() {
			b.WriteString("method " + recv[m.Name()] + " " + m.Name() +
				strings.TrimPrefix(typ(m.Type()), "func") + "\n")
		}
	}
}

func lineSet(s string) map[string]bool {
	set := map[string]bool{}
	for _, l := range strings.Split(s, "\n") {
		set[l] = true
	}
	return set
}
