// Package lockorder checks mutex acquisitions against a declared
// ranking within one function.
//
// The write path declares a deterministic acquisition order across its
// three locks: the FS container registry (FS.hmu), then the container
// lock (container.mu, shared or exclusive), then the per-pid writer
// shard (writer.mu). The invariant lives only in comments; this
// analyzer makes it mechanical: acquiring a ranked lock while a
// strictly higher-ranked lock is held (in the same function, including
// closures, which inherit the enclosing held-set) is a finding.
//
// The check is a linear over-approximation: statements are scanned in
// source order, Lock/RLock marks a rank held, Unlock/RUnlock releases
// it, and a deferred unlock pins the rank held to function end. A lock
// reached through an embedded struct is ranked under the type that
// declares the field. Locks not named in the ranking are ignored, and
// re-acquiring an already-held rank is allowed — distinct instances of
// one rank are beyond static reach.
//
// A ranking entry that names no mutex field of the analyzed package is
// itself a finding: a renamed type or field would otherwise leave its
// rank silently matching nothing.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"ldplfs/internal/analysis"
)

// DefaultRanking is the declared data-path order, outermost first:
// "Type.field" at index i must be acquired before any entry at index
// j > i.
var DefaultRanking = []string{"FS.hmu", "container.mu", "writer.mu"}

// Analyzer is the production instance over DefaultRanking.
var Analyzer = New(DefaultRanking)

var lockMethods = map[string]bool{"Lock": true, "RLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}

// New builds an analyzer enforcing the given ranking (outermost lock
// first).
func New(ranking []string) *analysis.Analyzer {
	rank := make(map[string]int, len(ranking))
	for i, k := range ranking {
		rank[k] = i
	}
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc: "checks mutex acquisition order against the declared ranking " +
			strings.Join(ranking, " -> ") + " within one function",
		Run: func(pass *analysis.Pass) error { return run(pass, ranking, rank) },
	}
}

func run(pass *analysis.Pass, ranking []string, rank map[string]int) error {
	if len(pass.Files) == 0 {
		return nil
	}
	for _, key := range ranking {
		owner, field, _ := strings.Cut(key, ".")
		if !declaresMutex(pass.Pkg, owner, field) {
			pass.Reportf(pass.Files[0].Package, "ranking entry %s names no mutex field in package %s", key, pass.Pkg.Name())
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body, ranking, rank)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, ranking []string, rank map[string]int) {
	held := make([]int, len(ranking)) // acquisition count per rank
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			key, method, ok := lockCall(pass, n)
			if !ok {
				return true
			}
			r, ranked := rank[key]
			if !ranked {
				return true
			}
			switch {
			case lockMethods[method] && !deferred[n]:
				for h := r + 1; h < len(held); h++ {
					if held[h] > 0 {
						pass.Reportf(n.Pos(),
							"acquires %s (rank %d) while holding %s (rank %d); declared order is %s",
							key, r, ranking[h], h, strings.Join(ranking, " -> "))
					}
				}
				held[r]++
			case unlockMethods[method] && !deferred[n]:
				if held[r] > 0 {
					held[r]--
				}
			}
		}
		return true
	})
}

// lockCall decodes a call of the form <expr>.<Lock|RLock|Unlock|RUnlock>()
// where <expr> is a struct field selection, returning the ranking key
// "OwnerType.field" and the method name.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	method = sel.Sel.Name
	if !lockMethods[method] && !unlockMethods[method] {
		return "", "", false
	}
	// The receiver must itself be a field selection: f.mu, p.hmu, ...
	recv, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, found := pass.TypesInfo.Selections[recv]
	if !found || selection.Kind() != types.FieldVal {
		return "", "", false
	}
	// Walk the embedding path, so a promoted field is keyed by the struct
	// that declares it, not by the type it was reached through.
	owner := selection.Recv()
	for _, i := range selection.Index()[:len(selection.Index())-1] {
		owner = structOf(owner).Field(i).Type()
	}
	named, isNamed := deref(owner).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	return fmt.Sprintf("%s.%s", named.Obj().Name(), recv.Sel.Name), method, true
}

// deref returns what t points to, or t itself when it is no pointer.
func deref(t types.Type) types.Type {
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return p.Elem()
	}
	return t
}

// structOf returns the struct behind t, through one pointer.
func structOf(t types.Type) *types.Struct {
	s, _ := deref(t).Underlying().(*types.Struct)
	return s
}

// declaresMutex reports whether pkg declares a struct type owner with a
// sync.Mutex or sync.RWMutex field named field.
func declaresMutex(pkg *types.Package, owner, field string) bool {
	obj := pkg.Scope().Lookup(owner)
	if obj == nil {
		return false
	}
	s := structOf(obj.Type())
	for i := 0; s != nil && i < s.NumFields(); i++ {
		if f := s.Field(i); f.Name() == field {
			t := f.Type().String()
			return t == "sync.Mutex" || t == "sync.RWMutex"
		}
	}
	return false
}
