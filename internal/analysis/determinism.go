package analysis

import (
	"go/ast"
	"go/types"
)

// bannedTime are the package time functions that read the wall clock
// or schedule against it. Inside the engine every one of them would
// desynchronize a simulated run from its event clock, so time must
// flow through transport.Transport.Now/After instead.
var bannedTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
}

// allowedRand are the math/rand names engine code may reference:
// constructing a seeded source is exactly how determinism is
// achieved; everything else at package level draws from the global,
// process-seeded source and is forbidden.
var allowedRand = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Determinism forbids wall-clock time and global randomness inside
// the engine/sim packages (Config.EnginePackages). Byte-identical
// experiment output at any parallelism width — the repo's headline
// reproducibility claim — holds only if every timestamp and random
// draw comes from the per-run transport seam (virtual clock, seeded
// source). realudp and the cmds are deliberately outside the
// scope: they adapt the engine to the real world, where the wall
// clock is the point.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "engine/sim packages must not use wall-clock time or global math/rand",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, pkg := range pass.Module.Sorted() {
		if !matchAny(pkg.Path, pass.Config.EnginePackages) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				qual, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[qual].(*types.PkgName)
				if !ok {
					return true
				}
				switch pn.Imported().Path() {
				case "time":
					if bannedTime[sel.Sel.Name] {
						pass.Reportf(sel.Pos(),
							"time.%s in deterministic engine package %s: use the transport seam (Transport.Now/After) instead",
							sel.Sel.Name, pkg.Path)
					}
				case "math/rand", "math/rand/v2":
					obj := pkg.Info.Uses[sel.Sel]
					if _, isFunc := obj.(*types.Func); isFunc && !allowedRand[sel.Sel.Name] {
						pass.Reportf(sel.Pos(),
							"global %s.%s in deterministic engine package %s: draw from the seeded transport source (Transport.Rand) instead",
							pn.Imported().Path(), sel.Sel.Name, pkg.Path)
					}
				}
				return true
			})
		}
	}
}
