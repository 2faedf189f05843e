package core

import (
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestProtocolFilesStayBehindTheSeam holds the four protocol files to
// the observation seam (observe.go): they may not import the clock or
// any sink package, so a timing block or a direct sink call cannot be
// pasted back into a commit path without this failing.
func TestProtocolFilesStayBehindTheSeam(t *testing.T) {
	banned := map[string]bool{
		"time":                  true,
		"mvdb/internal/obs":     true,
		"mvdb/internal/trace":   true,
		"mvdb/internal/hotspot": true,
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
}
