package linkpred

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocsCiteLiveTests keeps the docs honest about the tests they point a
// reader to: every Test*, Fuzz* or Benchmark* name cited in backticks in
// DESIGN.md, README.md, benchmark/README.md or the verify skill must be
// declared — "func Name(" — in some _test.go file of the repository, the
// benchmark module included. Renaming or deleting a cited test fails here
// until the doc is fixed.
func TestDocsCiteLiveTests(t *testing.T) {
	var src strings.Builder
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build caches
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			src.Write(b)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls := src.String()
	span := regexp.MustCompile("`[^`\n]+`")
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	cited := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "benchmark/README.md", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, sp := range span.FindAll(b, -1) {
			for _, n := range name.FindAll(sp, -1) {
				cited++
				if !strings.Contains(decls, "func "+string(n)+"(") {
					missing[string(n)] = true
				}
			}
		}
		var names []string
		for n := range missing {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t.Errorf("%s cites `%s`, but no _test.go declares func %s(", doc, n, n)
		}
	}
	if cited == 0 {
		t.Fatal("found no cited test names: the extraction is broken")
	}
}
