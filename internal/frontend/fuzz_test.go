package frontend

import (
	"testing"

	"clustersched/internal/machine"
	"clustersched/internal/mii"
)

// compileSeeds are FuzzCompile's seed inputs, shared with the oracle
// fuzz target and the oracle corpus test.
var compileSeeds = []string{
	"loop dp { s = s + a[i] * b[i] }",
	"loop st { x[i] = (x[i-1] + x[i+1]) / 2.0 }",
	"loop lin { v = v * c + d[i]\nout[i] = v }",
	"loop n { r[i] = sqrt(u[i]*u[i]) }",
	"loop e { a[i] = -b[i] + 3.5 }",
	"loop g { t = a[i]; u = t * t; c[i] = u }",
	"loop bad { a[j] = 1.0 }",
	"loop bad2 { a[i] = }",
	"loop { }",
	"###",
	"loop x { y = y }",
	"loop w { x[i] = x[i] }",
}

// FuzzCompile feeds arbitrary source to the compiler: it must never
// panic, and anything it accepts must be a valid, MII-computable
// dependence graph.
func FuzzCompile(f *testing.F) {
	for _, s := range compileSeeds {
		f.Add(s)
	}
	m := machine.NewBusedGP(2, 2, 1)
	f.Fuzz(func(t *testing.T, src string) {
		loops, err := Compile(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, l := range loops {
			if verr := l.Graph.Validate(); verr != nil {
				t.Fatalf("accepted invalid graph: %v\nsource: %q", verr, src)
			}
			if got := mii.MII(l.Graph, m); got < 1 {
				t.Fatalf("MII = %d\nsource: %q", got, src)
			}
		}
	})
}
