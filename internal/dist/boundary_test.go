package dist

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSiteDecisionsStayInCore holds the package to what a site is: a
// core engine. Its vote (core.Engine.Vote), its deadlock rule and lock
// timeout (core.ClusterSite) and its visibility lag
// (core.Engine.VisibilityLag) are the engine's to derive, so no file of
// the package may reach past the engine into the version-control module
// or the lock manager.
func TestSiteDecisionsStayInCore(t *testing.T) {
	banned := map[string]bool{
		"mvdb/internal/vc":   true,
		"mvdb/internal/lock": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %q; a site's decisions are core.Engine's", file, path)
			}
		}
	}
}
