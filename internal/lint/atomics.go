package lint

import "go/types"

// atomicsAnalyzer keeps every atomic cell typed: any use of a sync/atomic
// package function (atomic.AddInt64(&n, 1), or the function as a value) is
// a finding. With typed atomics (atomic.Int64, atomic.Pointer[T], ...) a
// plain read or write of the cell does not compile and a copy of a struct
// holding one is a `go vet` copylocks finding, so the all-or-nothing access
// discipline holds by construction.
var atomicsAnalyzer = &Analyzer{
	Name: "atomics",
	Doc:  "sync/atomic package functions; use a typed atomic",
	Run:  runAtomics,
}

func runAtomics(p *Package) []Diagnostic {
	var out []Diagnostic
	for id, obj := range p.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		out = append(out, diagAt(p, "atomics", id,
			"sync/atomic function %s; use a typed atomic (plain access to one does not compile, go vet flags its copies)", fn.Name()))
	}
	return out
}
