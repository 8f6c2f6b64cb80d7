package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix is the comment marker all querclint directives share:
// //querc:<name> [reason]. Recognized names are "hotpath" (annotation) and
// the per-analyzer allow-* suppressions (Analyzer.Allow).
const DirectivePrefix = "querc:"

// directiveIndex resolves which directives apply at a position: a directive
// suppresses findings on its own line and the line below it, and a
// directive attached to a function declaration (in or immediately above its
// doc comment, or on the func line) applies to the whole body.
type directiveIndex struct {
	fset *token.FileSet
	// byLine maps file -> line -> directive names on that line.
	byLine map[string]map[int][]string
	// funcRanges holds whole-function directive spans.
	funcRanges []funcDirRange
	// hotFuncs records which function declarations carry //querc:hotpath.
	hotFuncs map[*ast.FuncDecl]bool
}

type funcDirRange struct {
	file       string
	start, end int // line span of the function body
	name       string
}

// parseDirective returns the directive name in a comment, or "".
func parseDirective(c *ast.Comment) string {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, DirectivePrefix) {
		return ""
	}
	rest := strings.TrimPrefix(text, DirectivePrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// buildDirectiveIndex scans every comment in the files for //querc:
// directives and attaches them to lines and function declarations.
func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{
		fset:     fset,
		byLine:   make(map[string]map[int][]string),
		hotFuncs: make(map[*ast.FuncDecl]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := parseDirective(c)
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], name)
			}
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, name := range idx.funcDirectives(fd) {
				if name == "hotpath" {
					idx.hotFuncs[fd] = true
				}
				start := fset.Position(fd.Body.Pos())
				end := fset.Position(fd.Body.End())
				idx.funcRanges = append(idx.funcRanges, funcDirRange{
					file:  start.Filename,
					start: start.Line,
					end:   end.Line,
					name:  name,
				})
			}
		}
	}
	return idx
}

// funcDirectives collects the directive names attached to a function
// declaration: any line of its doc comment, the line immediately above the
// declaration (or above its doc comment), or the declaration line itself.
func (idx *directiveIndex) funcDirectives(fd *ast.FuncDecl) []string {
	declPos := idx.fset.Position(fd.Pos())
	lines := idx.byLine[declPos.Filename]
	if lines == nil {
		return nil
	}
	first := declPos.Line
	if fd.Doc != nil {
		first = idx.fset.Position(fd.Doc.Pos()).Line
	}
	var names []string
	for l := first - 1; l <= declPos.Line; l++ {
		names = append(names, lines[l]...)
	}
	return names
}

// suppressed reports whether an allow directive covers pos.
func (idx *directiveIndex) suppressed(allow string, pos token.Pos) bool {
	if allow == "" {
		return false
	}
	p := idx.fset.Position(pos)
	if lines := idx.byLine[p.Filename]; lines != nil {
		for _, l := range [2]int{p.Line, p.Line - 1} {
			for _, name := range lines[l] {
				if name == allow {
					return true
				}
			}
		}
	}
	for _, r := range idx.funcRanges {
		if r.name == allow && r.file == p.Filename && r.start <= p.Line && p.Line <= r.end {
			return true
		}
	}
	return false
}

// isHot reports whether fd carries the //querc:hotpath annotation.
func (idx *directiveIndex) isHot(fd *ast.FuncDecl) bool { return idx.hotFuncs[fd] }
