package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// The analyzers are driven by source annotations rather than
// hard-coded type lists, so they apply to any package that opts in and
// their test fixtures stay dependency-free:
//
//	//repolint:invalidate <hook>      on a struct type: exported
//	                                  mutators must reach <hook>
//	//repolint:shared-state           on a struct type: calls to its
//	                                  methods must be vtime-charged
//	//repolint:determinism-critical   in the package doc: no map
//	                                  iteration without sorting
//	//repolint:test-support           in the package doc: a harness
//	                                  only tests import; testonly
//	                                  skips it
//	// guarded by <mu>                on a struct field: access only
//	                                  under the sibling mutex <mu>
//	//repolint:requires <mu>          on a method: callers hold <mu>
//	                                  (equivalent to a "Locked" name
//	                                  suffix)
//	//repolint:allow <analyzer> -- <reason>
//	                                  suppress, with justification, on
//	                                  this line or the next
const annotationPrefix = "repolint:"

// TypeAnnotation scans a type declaration's doc comment for
// "repolint:<key>" and returns the rest of that line ("" if the
// annotation is bare) and whether it was found.
func TypeAnnotation(doc *ast.CommentGroup, key string) (string, bool) {
	return commentAnnotation(doc, key)
}

// commentAnnotation matches machine annotations only in their strict
// spelling — no space after "//", like //go:build — so prose that
// merely mentions an annotation is never parsed as one.
func commentAnnotation(doc *ast.CommentGroup, key string) (string, bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//" + annotationPrefix + key
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, prefix) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, prefix)
		if rest != "" && !strings.HasPrefix(rest, " ") {
			continue // longer key, e.g. shared-state vs shared
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// PackageAnnotated reports whether any file's package doc carries
// "repolint:<key>".
func PackageAnnotated(files []*ast.File, key string) bool {
	for _, f := range files {
		if _, ok := commentAnnotation(f.Doc, key); ok {
			return true
		}
	}
	return false
}

// AnnotatedType is one struct type that carries a repolint type
// annotation.
type AnnotatedType struct {
	Spec  *ast.TypeSpec
	Named *types.Named
	// Value is the annotation's argument (e.g. the invalidation hook
	// name).
	Value string
}

// AnnotatedTypes collects the package's struct types annotated with
// "repolint:<key>".
func AnnotatedTypes(pass *Pass, key string) []AnnotatedType {
	var out []AnnotatedType
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				val, ok := commentAnnotation(doc, key)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				out = append(out, AnnotatedType{Spec: ts, Named: named, Value: val})
			}
		}
	}
	return out
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// GuardedBy extracts the mutex name from a struct-field comment of the
// form "... guarded by <mu> ...".
func GuardedBy(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// Suppression is one parsed //repolint:allow comment.
type Suppression struct {
	Pos      token.Pos
	Analyzer string
	Reason   string
}

// Suppressions collects every //repolint:allow comment in the files.
// A suppression applies to diagnostics on its own line and on the
// following line, so it can trail a statement or sit just above one
// (including as the last line of a doc comment).
func Suppressions(files []*ast.File) []Suppression {
	var out []Suppression
	prefix := "//" + annotationPrefix + "allow"
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
				name, reason, _ := strings.Cut(rest, "--")
				out = append(out, Suppression{
					Pos:      c.Pos(),
					Analyzer: strings.TrimSpace(name),
					Reason:   strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// Filter drops diagnostics covered by a justified suppression and
// appends a diagnostic for every suppression that lacks a reason — an
// unexplained allow is itself a violation.
func Filter(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	sups := Suppressions(files)
	type lineKey struct {
		file string
		line int
		name string
	}
	allowed := map[lineKey]bool{}
	var out []Diagnostic
	for _, s := range sups {
		if s.Reason == "" {
			out = append(out, Diagnostic{
				Pos:      s.Pos,
				Analyzer: s.Analyzer,
				Message:  "repolint:allow suppression without a reason; append `-- <why this is safe>`",
			})
			continue
		}
		p := fset.Position(s.Pos)
		allowed[lineKey{p.Filename, p.Line, s.Analyzer}] = true
		allowed[lineKey{p.Filename, p.Line + 1, s.Analyzer}] = true
	}
	for _, d := range diags {
		p := fset.Position(d.Pos)
		if allowed[lineKey{p.Filename, p.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}
