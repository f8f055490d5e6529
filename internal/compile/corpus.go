package compile

import (
	"clustersched/internal/frontend"
	"clustersched/internal/livermore"
)

// The generated slice of the regression corpus is pinned by
// (CorpusSeed, CorpusCount): TestCorpusMatchesGenerator regenerates
// it with loopgen.SourceCorpus and compares byte for byte, so the
// checked-in text can never drift from the generator, the frontend,
// or the lint rules without the drift being visible in review.
const (
	CorpusSeed  = 10
	CorpusCount = 24
)

// corpusSource is the fuzz-mined generated corpus: candidate programs
// drawn from the loop-language grammar, kept only when they compile,
// lint completely clean, and land in a useful size band. Regenerate
// with loopgen.SourceCorpus(CorpusSeed, CorpusCount) after frontend
// or lint changes.
const corpusSource = `loop gen000 {
	d[i] = d[i-2] * sqrt(1.5)
	t1 = -c[i+1]
	v[i] = (t1 / c[i+2] + b[i-1] * a[i-1])
}
loop gen001 {
	u[i] = select(2, b[i+1] - 1.5, c[i])
	w[i] = 2 / b[i]
	s2 = s2 * c[i] * c[i-1]
}
loop gen002 {
	b[i] = b[i-2] + -b[i]
	t1 = d[i-2] * a[i+2] * 0.5
	v[i] = (t1 / t1 * b[i-1])
}
loop gen003 {
	d[i] = d[i-1] - 3 + d[i-1]
	w[i] = 1.5 * c[i-2] * a[i-1]
	v[i] = 3 - 1.5 * 0.5
}
loop gen004 {
	v[i] = -c[i] * c[i-2]
}
loop gen005 {
	t0 = select(2, 1.5, b[i+2])
	w[i] = (t0 * 3)
	a[i] = a[i-1] / b[i+1] + a[i-2]
}
loop gen006 {
	s0 = s0 * -s0
	s1 = s1 + d[i-2] * c[i+1]
	s2 = s2 + sqrt(d[i-1])
}
loop gen007 {
	t0 = c[i+2]
	s1 = s1 + (t0 + t0 + a[i+1])
	v[i] = d[i] + 3 * a[i+1]
}
loop gen008 {
	c[i] = c[i-2] + sqrt(d[i-1])
}
loop gen009 {
	d[i] = d[i-2] + a[i+1] / b[i-1]
}
loop gen010 {
	v[i] = -b[i+2] * b[i-1]
	w[i] = -b[i+2]
}
loop gen011 {
	w[i] = c[i] - a[i+1] * a[i]
}
loop gen012 {
	w[i] = sqrt(d[i-1]) + 2
	v[i] = select(3, 1.5 * c[i-1], d[i-2])
	u[i] = b[i-2] / 2
}
loop gen013 {
	c[i] = c[i-2] / c[i+1] / 2
}
loop gen014 {
	c[i] = c[i-1] * -3
	v[i] = c[i] * d[i-2] * 1.5
}
loop gen015 {
	w[i] = a[i+1] * 0.5 - 0.5
}
loop gen016 {
	t0 = sqrt(c[i+1]) - b[i+1]
	s1 = s1 + (t0 * b[i] * 0.5)
	w[i] = 1.5 - b[i]
}
loop gen017 {
	d[i] = d[i-1] * select(b[i], 3, c[i+2])
	u[i] = select(3, sqrt(0.5), 3)
}
loop gen018 {
	b[i] = b[i-2] - -d[i]
	w[i] = -1.5 - 0.5
}
loop gen019 {
	s0 = s0 + select(s0, 3, a[i-1])
	w[i] = -b[i]
}
loop gen020 {
	s0 = s0 + 1.5 + c[i-1]
	s1 = s1 + sqrt(1.5)
	v[i] = b[i] * d[i+1] - a[i-2]
}
loop gen021 {
	u[i] = c[i+1] / 0.5 * b[i-1]
	w[i] = -d[i] + 1.5
}
loop gen022 {
	s0 = s0 + -s0
	v[i] = b[i] / b[i+1] / s0
	s2 = s2 * -3
	u[i] = s0 * 2 / b[i+2]
}
loop gen023 {
	b[i] = b[i-1] * b[i] + d[i+2]
}
`

// GeneratedSource returns the generated (non-Livermore) slice of the
// corpus as loop-language source.
//
//schedvet:test-api the corpus source text the frontend's tests parse
func GeneratedSource() string { return corpusSource }

// Corpus returns the full compile regression corpus: the fourteen
// Livermore kernels followed by the fuzz-mined generated programs.
// Every loop in it schedules on the reference machines and passes sim
// cross-validation (enforced by TestCorpusSchedulesAndSimValidates).
//
//schedvet:test-api the regression corpus bench's input tests and the identity digest schedule
func Corpus() ([]frontend.Loop, error) {
	kernels, err := livermore.Kernels()
	if err != nil {
		return nil, err
	}
	gen, err := frontend.Compile(corpusSource)
	if err != nil {
		return nil, err
	}
	return append(kernels, gen...), nil
}
