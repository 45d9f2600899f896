package analysis

import "testing"

const rngScope = "mpgraph/internal/sim/fixture"

func TestRNGPurityFlagsCopiesAndLiterals(t *testing.T) {
	res := runFixture(t, RNGPurityAnalyzer, rngScope, "internal/sim/fixture/copy.go", `
package fixture

import "mpgraph/internal/dist"

func Copy(r *dist.RNG) dist.RNG {
	v := *r
	use(v)
	return v
}

func use(r dist.RNG) {}

func Conjure() {
	_ = dist.RNG{}
}
`)
	wantOutstanding(t, res,
		"dist.RNG copied by value",
		"dist.RNG passed by value",
		"dist.RNG returned by value",
		"composite literal bypasses the approved constructors",
	)
}

func TestRNGPurityFlagsGoroutineCapture(t *testing.T) {
	res := runFixture(t, RNGPurityAnalyzer, rngScope, "internal/sim/fixture/capture.go", `
package fixture

import "mpgraph/internal/dist"

func Race(r *dist.RNG, out []float64) {
	for i := range out {
		go func(i int) {
			out[i] = r.Float64()
		}(i)
	}
}
`)
	wantOutstanding(t, res, `RNG "r" captured by a goroutine closure`)
}

func TestRNGPurityFlagsSharedStore(t *testing.T) {
	res := runFixture(t, RNGPurityAnalyzer, rngScope, "internal/sim/fixture/store.go", `
package fixture

import "mpgraph/internal/dist"

type worker struct{ rng *dist.RNG }

func Share(ws []*worker, r *dist.RNG) {
	for _, w := range ws {
		w.rng = r
	}
}
`)
	wantOutstanding(t, res, "shares one stream between owners")
}

func TestRNGPurityAllowsConstructorsAndPointers(t *testing.T) {
	res := runFixture(t, RNGPurityAnalyzer, rngScope, "internal/sim/fixture/ok.go", `
package fixture

import "mpgraph/internal/dist"

type worker struct {
	rng     *dist.RNG
	backing [4]dist.RNG
}

func Wire(w *worker, parent *dist.RNG) {
	w.rng = parent.ForkNamed("worker")
	for i := range w.backing {
		w.backing[i].Reseed(uint64(i))
	}
	w.rng = &w.backing[0]
}
`)
	wantOutstanding(t, res)
}

func TestRNGPurityExemptInDistPackage(t *testing.T) {
	res := runFixture(t, RNGPurityAnalyzer, "mpgraph/internal/dist", "internal/dist/fixture.go", `
package dist

type RNG struct{ state uint64 }

func clone(r RNG) RNG { return r }
`)
	wantOutstanding(t, res)
}

func TestRNGPuritySuppression(t *testing.T) {
	res := runFixture(t, RNGPurityAnalyzer, rngScope, "internal/sim/fixture/supp.go", `
package fixture

import "mpgraph/internal/dist"

func Snapshot(r *dist.RNG) dist.RNG {
	//mpg:lint-ignore rngpurity demonstration fixture: state capture for golden tests, stream is discarded
	return *r
}
`)
	wantOutstanding(t, res)
	wantSuppressed(t, res, 1)
}
