// Package livermore provides real numeric kernels — the classic
// Livermore Fortran Kernels (McMahon, 1986), one of the paper's three
// benchmark sources — written in the clusterc loop language and
// compiled through the frontend. They complement the synthetic suite
// with loops whose dependence structure is exactly the published
// algorithms': reductions, linear recurrences, stencils carried
// through memory, and IF-converted conditionals.
//
// Kernels needing features outside the language subset (transcendental
// intrinsics, indirect addressing, inner loop nests) are represented
// by their innermost dependence-equivalent form or omitted; each
// kernel's comment states the correspondence.
package livermore

import (
	"fmt"

	"clustersched/internal/ddg"
	"clustersched/internal/frontend"
)

// source is the kernel collection in clusterc loop syntax.
const source = `
# LFK 1 — hydro fragment: x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])
loop lfk01_hydro {
    x[i] = q + y[i] * (r * z[i+10] + t * z[i+11])
}

# LFK 3 — inner product: q = q + z[k]*x[k]
loop lfk03_innerprod {
    q = q + z[i] * x[i]
}

# LFK 4 — banded linear equations (innermost update form)
loop lfk04_banded {
    xz[i] = y[i] * (xz[i] - temp * x[i])
}

# LFK 5 — tri-diagonal elimination, below diagonal:
# x[i] = z[i]*(y[i] - x[i-1]) — a true first-order recurrence through
# memory.
loop lfk05_tridiag {
    x[i] = z[i] * (y[i] - x[i-1])
}

# LFK 6 — general linear recurrence (scalar-accumulator form):
# w = w + b[k]*w_prev collapses to a multiply-accumulate recurrence.
loop lfk06_linrec {
    w = w * b[i] + v[i]
    out[i] = w
}

# LFK 7 — equation of state fragment (wide, independent expression)
loop lfk07_eos {
    x[i] = u[i] + r * (z[i] + r * y[i]) + t * (u[i+3] + r * (u[i+2] + r * u[i+1]) + t * (u[i+6] + q * (u[i+5] + q * u[i+4])))
}

# LFK 9 — integrate predictors (long independent polynomial)
loop lfk09_integrate {
    px[i] = dm28 * px9[i] + dm27 * px8[i] + dm26 * px7[i] + dm25 * px6[i] + dm24 * px5[i] + dm23 * px4[i] + dm22 * px3[i] + c0 * (px1[i] + px2[i]) + px0[i]
}

# LFK 10 — difference predictors (chained differences; scalar chain)
loop lfk10_diffpred {
    ar = cx[i]
    br = ar - px1[i]
    cr = br - px2[i]
    dx[i] = cr
}

# LFK 11 — first sum: x[k] = x[k-1] + y[k], the prefix-sum recurrence
# through memory.
loop lfk11_firstsum {
    x[i] = x[i-1] + y[i]
}

# LFK 12 — first difference: x[k] = y[k+1] - y[k], fully parallel.
loop lfk12_firstdiff {
    x[i] = y[i+1] - y[i]
}

# LFK 18 — 2-D explicit hydrodynamics fragment (one row strip: three
# coupled stencil updates per point).
loop lfk18_hydro2d {
    za[i] = zp[i+1] * zr[i] + zq[i+1] * zm[i]
    zb[i] = zp[i] * zr[i] + zq[i] * zm[i+1]
    zu[i] = zu[i] + s * (za[i] * (zz[i] - zz[i+1]) - zb[i] * (zz[i] - zz[i-1]))
}

# LFK 21 — matrix*matrix product, innermost accumulation.
loop lfk21_matmul {
    px[i] = px[i] + vy * cx[i]
}

# LFK 22 — Planckian distribution: y[k]=u[k]/v[k]; w[k]=x[k]/(exp(y)-1)
# exp is outside the subset; the division structure is preserved with
# the sqrt unit standing in for the transcendental (both are 9-cycle
# long-latency units on this machine).
loop lfk22_planck {
    yy[i] = u[i] / v[i]
    w[i] = x[i] / (sqrt(yy[i]) - 1.0)
}

# LFK 24 — find location of first minimum (IF-converted running min:
# m = select(x[k] - m, m, x[k])).
loop lfk24_argmin {
    d = x[i] - m
    m = select(d, m, x[i])
}
`

// Source returns the kernel collection as loop-language source.
func Source() string { return source }

// Kernels compiles the collection. The result is deterministic; the
// error path exists only to guard against regressions in the frontend
// (the embedded source is tested to compile).
func Kernels() ([]frontend.Loop, error) {
	loops, err := frontend.Compile(source)
	if err != nil {
		return nil, fmt.Errorf("livermore: embedded kernels failed to compile: %w", err)
	}
	return loops, nil
}

// Graphs returns just the dependence graphs, for harnesses that take
// plain loop slices.
func Graphs() ([]*ddg.Graph, error) {
	loops, err := Kernels()
	if err != nil {
		return nil, err
	}
	out := make([]*ddg.Graph, len(loops))
	for i, l := range loops {
		out[i] = l.Graph
	}
	return out, nil
}
