package linkpred

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose backticked citations the docs checks
// hold to the code.
var checkedDocs = []string{"DESIGN.md", "README.md", "benchmark/README.md", ".claude/skills/verify/SKILL.md"}

// backticked matches one inline code span.
var backticked = regexp.MustCompile("`[^`\n]+`")

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
	name := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	cited := 0
	for _, doc := range checkedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, sp := range backticked.FindAll(b, -1) {
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

// TestDocsCiteLiveMetrics does for metric names what TestDocsCiteLiveTests
// does for tests. Every backticked span in the same documents that starts
// with serve/, cluster/, wal/, liveeval/ or snapcache/ names a metric, unless
// it is a file path (….go). With its {labels} and a trailing *, … or /
// stripped, the name must begin some string literal of non-test Go, or be
// built the way serve.Instrument builds its names: a namespace literal
// ("serve", "cluster") joined to a literal that begins with the rest
// ("/http/…", or "%s/http/…" for Sprintf). A metric that is deleted or
// renamed fails here until the doc is fixed.
func TestDocsCiteLiveMetrics(t *testing.T) {
	var lits []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var sc scanner.Scanner
		sc.Init(token.NewFileSet().AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				return nil
			}
			if s, err := strconv.Unquote(lit); tok == token.STRING && err == nil {
				lits = append(lits, s)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	live := func(name string) bool {
		ns, rest, _ := strings.Cut(name, "/")
		joined := false
		for _, l := range lits {
			joined = joined || l == ns
		}
		for _, l := range lits {
			if strings.HasPrefix(l, name) || joined && strings.HasPrefix(strings.TrimPrefix(l, "%s"), "/"+rest) {
				return true
			}
		}
		return false
	}
	metric := regexp.MustCompile(`^(serve|cluster|wal|liveeval|snapcache)/[^\s]*`)
	cited := 0
	for _, doc := range checkedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, sp := range backticked.FindAll(b, -1) {
			m := string(metric.Find(sp[1 : len(sp)-1]))
			if m == "" || strings.HasSuffix(m, ".go") {
				continue
			}
			name, _, _ := strings.Cut(m, "{")
			name = strings.TrimSuffix(strings.TrimRight(name, "*…"), "/")
			cited++
			if !live(name) {
				missing[m] = true
			}
		}
		var names []string
		for n := range missing {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t.Errorf("%s cites `%s`, but no string literal in non-test Go registers it", doc, n)
		}
	}
	if cited == 0 {
		t.Fatal("found no cited metric names: the extraction is broken")
	}
}

// TestDocsCiteLivePaths does the same for the files a doc points a reader
// to. Every backticked span in the same documents that is a Go file name
// (it starts with a letter or digit and ends in .go) or a path under
// internal/, cmd/ or examples/ (its first word, when the span is a command
// line) must exist relative to the repository root or to benchmark/. A bare
// file name may live in any package. Deleting or moving a cited file fails
// here until the doc is fixed.
func TestDocsCiteLivePaths(t *testing.T) {
	goFiles := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		for _, root := range []string{".", "benchmark"} {
			if _, err := os.Stat(filepath.Join(root, path)); err == nil {
				return true
			}
		}
		return false
	}
	goName := regexp.MustCompile(`^[A-Za-z0-9]\S*\.go$`)
	cited := 0
	for _, doc := range checkedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		missing := map[string]bool{}
		for _, sp := range backticked.FindAll(b, -1) {
			s := string(sp[1 : len(sp)-1])
			var live bool
			switch {
			case goName.MatchString(s) && !strings.Contains(s, "/"):
				live = goFiles[s]
			case goName.MatchString(s) || strings.HasPrefix(s, "internal/") || strings.HasPrefix(s, "cmd/") || strings.HasPrefix(s, "examples/"):
				path, _, _ := strings.Cut(s, " ")
				live = exists(path)
			default:
				continue
			}
			cited++
			if !live {
				missing[s] = true
			}
		}
		var names []string
		for n := range missing {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t.Errorf("%s cites `%s`, but no such file or directory exists", doc, n)
		}
	}
	if cited == 0 {
		t.Fatal("found no cited paths: the extraction is broken")
	}
}
