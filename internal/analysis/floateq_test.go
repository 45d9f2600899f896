package analysis

import "testing"

func TestFloateqFlagsExactComparisons(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/cmp.go", `
package fixture

func Cmp(a, b float64) (bool, bool, bool) {
	return a == b, a != b, a >= b
}
`)
	wantOutstanding(t, res,
		"exact floating-point comparison (==)",
		"exact floating-point comparison (!=)",
		"exact floating-point comparison (>=)",
	)
}

func TestFloateqAllowsOrderedNaNConstAndInts(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/ok.go", `
package fixture

func OK(a, b float64, i, j int) bool {
	if a > b || a < b { // ordered merges are the engine's bread and butter
		return true
	}
	if a != a { // portable NaN test
		return false
	}
	const x, y = 1.0, 2.0
	return x == y || i == j
}
`)
	wantOutstanding(t, res)
}

func TestFloateqApprovedKernelFileExempt(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, "mpgraph/internal/core", "internal/core/eq.go", `
package core

func bitEqual(a, b float64) bool { return a == b }
`)
	wantOutstanding(t, res)
}

func TestFloateqSuppression(t *testing.T) {
	res := runFixture(t, FloateqAnalyzer, detScope, "internal/core/fixture/supp.go", `
package fixture

func IsZero(d float64) bool {
	//mpg:lint-ignore floateq parameter-identity check against an exact zero default
	return d == 0
}
`)
	wantOutstanding(t, res)
	wantSuppressed(t, res, 1)
}
