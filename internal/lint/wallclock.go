package lint

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs are the packages whose outputs must be a pure
// function of (workload, config, seed): the simulator core and every
// layer the store keys or the differential tests compare bytewise.
// internal/experiments is included because its memoized artifacts and
// report tables feed the same comparisons; its two legitimate
// wall-clock sites (the RunStats harness-cost table) carry
// //arlvet:allow annotations. internal/explore's frontier must be a
// pure function of (grid, seed), and internal/seeded is the stream
// every seeded claim draws from.
var deterministicPkgs = map[string]bool{
	"repro/internal/cpu":         true,
	"repro/internal/cache":       true,
	"repro/internal/decouple":    true,
	"repro/internal/vm":          true,
	"repro/internal/core":        true,
	"repro/internal/stats":       true,
	"repro/internal/faultinject": true,
	"repro/internal/static":      true,
	"repro/internal/experiments": true,
	"repro/internal/seeded":      true,
	"repro/internal/explore":     true,
}

// wallclockFuncs are the time functions that read the wall clock or
// the scheduler; timers and tickers are included because they make
// control flow depend on elapsed real time.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true,
}

// randConstructors are the math/rand entry points that build an
// explicitly-seeded generator — the deterministic way in.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// Wallclock flags wall-clock reads and global math/rand use inside the
// deterministic packages. time.Now in a simulation path makes results
// differ run to run; the global rand source is both nondeterministic
// (randomly seeded since Go 1.20) and a hidden cross-test coupling.
// Explicitly seeded rand.New(rand.NewSource(seed)) generators pass.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "flags time.Now/time.Since and global math/rand in deterministic packages",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) error {
	if !deterministicPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := pass.calleeFunc(call)
			if f == nil || f.Pkg() == nil {
				return true
			}
			if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (t.Sub, r.Intn on a seeded *Rand) are fine
			}
			switch f.Pkg().Path() {
			case "time":
				if wallclockFuncs[f.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s in deterministic package %s: simulation output must not depend on the wall clock",
						f.Name(), pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[f.Name()] {
					pass.Reportf(call.Pos(),
						"global %s.%s in deterministic package %s: use an explicitly seeded generator",
						f.Pkg().Name(), f.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil
}
