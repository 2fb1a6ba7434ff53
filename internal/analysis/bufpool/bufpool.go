// Package bufpool enforces the PR 9 hot-path memory discipline in the
// engine package, the collective shuffle and the gateway wire: pooled
// buffers must go back to their pool, and the scatter-gather,
// vectored-write and frame hot functions must not allocate byte slices
// per call.
//
// Two checks:
//
//  1. Unpaired Get: a function that calls (*sync.Pool).Get must also
//     return the entry — either a (*sync.Pool).Put in the same
//     function (usually deferred), or a call (usually deferred) to a
//     package-local helper that itself calls Put (the plan.release
//     idiom). A Get with neither leaks pool entries: the pool still
//     works, but every "pooled" acquisition quietly degrades to a heap
//     allocation and the zero-alloc contract rots without any test
//     noticing.
//
//  2. Hot-path make: a `make([]byte, ...)` inside one of the engine's
//     per-operation hot functions (HotFuncs) reintroduces a per-call
//     allocation on exactly the path the warm-read/vectored-write
//     alloc budgets protect. Cold paths may allocate freely; the hot
//     set is a named list, not a guess.
//
// The pairing check is name-based for helpers (a called function with
// the right name that contains a Put satisfies it) — a deliberate
// approximation that matches this codebase's release() idiom without
// whole-program analysis.
package bufpool

import (
	"go/ast"
	"go/types"

	"ldplfs/internal/analysis"
)

// HotFuncs names the functions on the warm read/write path — the plfs
// engines', the mpiio shuffle's and the gateway wire's — whose per-call
// byte-slice allocations the alloc budgets forbid. Additions to the hot
// path belong here too.
var HotFuncs = map[string]bool{
	"scatterGather": true,
	"planBatches":   true,
	"readBatch":     true,
	"failBatch":     true,
	"writeV":        true,
	"writeData":     true,
	"pwriteAll":     true,
	// mpiio collective shuffle plane: the per-round aggregator loop.
	"route":         true,
	"stageWrite":    true,
	"stageReadRuns": true,
	"deliver":       true,
	"sortRefs":      true,
	"flushArena":    true,
	"fetchArena":    true,
	// gateway wire: every frame of a data op crosses these, on buffers
	// their connection owns (frameBuf.sized is the one grow-on-demand,
	// and is deliberately not in this set).
	"ReadHeader":  true,
	"ReadInto":    true,
	"ReadRest":    true,
	"ReadFrame":   true,
	"WriteFrame":  true,
	"handleFrame": true,
	"roundTrip":   true,
	"Pread":       true,
	"Pwrite":      true,
}

// Analyzer is the production instance.
var Analyzer = &analysis.Analyzer{
	Name: "bufpool",
	Doc: "enforces pooled-buffer hygiene: every sync.Pool Get is paired with a Put " +
		"(directly or via a releasing helper), and engine hot-path functions never " +
		"make([]byte, ...) per call",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Pass 1: which package functions call (*sync.Pool).Put directly?
	// Their names satisfy the pairing check for callers (release idiom).
	putters := make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if containsPoolCall(pass, fd.Body, "Put") {
				putters[fd.Name.Name] = true
			}
		}
	}

	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, putters)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, putters map[string]bool) {
	var firstGet ast.Node
	paired := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isPoolCall(pass, call, "Get"):
			if firstGet == nil {
				firstGet = call
			}
		case isPoolCall(pass, call, "Put"):
			paired = true
		default:
			// A call to a package-local releasing helper counts as the
			// pairing — plan.release() / handle.Release() style.
			if name := calleeName(call); putters[name] {
				paired = true
			}
		}
		if HotFuncs[fd.Name.Name] && isMakeByteSlice(pass, call) {
			pass.Reportf(call.Pos(),
				"make([]byte, ...) in engine hot-path %s allocates per call; draw from the shared buffer pool", fd.Name.Name)
		}
		return true
	})
	if firstGet != nil && !paired {
		pass.Reportf(firstGet.Pos(),
			"sync.Pool Get without a matching Put in %s; defer Put (or a releasing helper) so pooled buffers are returned", fd.Name.Name)
	}
}

// isPoolCall reports whether call is (*sync.Pool).<method>.
func isPoolCall(pass *analysis.Pass, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// containsPoolCall reports whether body contains a (*sync.Pool).<method>
// call.
func containsPoolCall(pass *analysis.Pass, body *ast.BlockStmt, method string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPoolCall(pass, call, method) {
			found = true
		}
		return !found
	})
	return found
}

// calleeName returns the bare name of the called function or method
// ("release" for plan.release(), "helper" for helper()).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isMakeByteSlice reports whether call is make([]byte, ...). Slices of
// slices ([][]byte) are headers only — they are not flagged.
func isMakeByteSlice(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	sl, ok := pass.TypesInfo.Types[call.Args[0]].Type.(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}
