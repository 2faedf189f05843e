package core

import (
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mvdb/internal/vc/epoch"
	"mvdb/internal/wal"
)

// TestProtocolFilesStayBehindTheSeam holds the four protocol files to
// the observation seam (observe.go): they may not import the clock or
// any sink package, so a timing block or a direct sink call cannot be
// pasted back into a commit path without this failing. It also holds
// the log writer, the epoch controller and the engine to configuration
// fixed at construction: the only setters they export are the hooks
// installed once before use, so an online knob has to argue its way in.
func TestProtocolFilesStayBehindTheSeam(t *testing.T) {
	banned := map[string]bool{
		"time":              true,
		"mvdb/internal/obs": true,
	}
	for _, file := range []string{"twopl.go", "tso.go", "occ.go", "readonly.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %q; report through txObs (observe.go) instead", file, path)
			}
		}
	}

	installed := map[string]bool{"SetBatchObserver": true, "SetVisibleObserver": true}
	for _, v := range []any{(*wal.Writer)(nil), (*epoch.Controller)(nil), (*Engine)(nil)} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Set") && !installed[name] {
				t.Errorf("%v exports %s: a running writer, controller or engine is not retuned", typ, name)
			}
		}
	}
}
