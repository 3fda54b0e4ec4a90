package regcoal

// Documentation health checks, run with the rest of `go test ./...`
// (the CI test and race jobs):
//
//   - TestDocsMarkdownLinks: every relative link in README.md and
//     docs/*.md points at a file that exists;
//   - TestDocsPackageComments: every package under internal/ (and the
//     root package) carries a package comment;
//   - TestDocsCoreExamples: every core algorithm package carries at
//     least one runnable godoc Example.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var markdownLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocsMarkdownLinks(t *testing.T) {
	files := []string{"README.md", "ROADMAP.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("docs/ missing: %v", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", file, m[1], err)
			}
		}
	}
}

func TestDocsPackageComments(t *testing.T) {
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, ".")
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (in %s) has no package comment", name, dir)
			}
		}
	}
}

// coreExamplePackages are the exported core packages that must each ship
// at least one runnable godoc Example (checked below; run them with
// `go test -run Example ./internal/...`).
var coreExamplePackages = []string{
	"internal/graph",
	"internal/greedy",
	"internal/coalesce",
	"internal/spill",
	"internal/regalloc",
}

func TestDocsCoreExamples(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range coreExamplePackages {
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		found := false
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fn, ok := d.(*ast.FuncDecl)
					if !ok || fn.Recv != nil {
						continue
					}
					if strings.HasPrefix(fn.Name.Name, "Example") {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: no godoc Example function; core packages must keep at least one runnable example", dir)
		}
	}
}
