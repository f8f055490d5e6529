// Package testapi seeds VET030 for TestTestAPISubjects: TestOnly,
// Countdown, Bare and Options.Spare are flagged; Oracle, Trace and
// Name.String are not.
package testapi

import "fmt"

type Options struct {
	Depth int // written by run
	Spare int // read, never written
	//schedvet:test-api the fixture's deliberate keeper field
	Trace bool
}

func Reached(o Options) int { return o.Depth + o.Spare }

func TestOnly() int { return 2 }

// Countdown refers only to itself.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

//schedvet:test-api the reference the fixture's tests compare against
func Oracle() int { return 3 }

// Bare's annotation gives no reason, so it exempts nothing.
//
//schedvet:test-api
func Bare() int { return 4 }

// Name implements fmt.Stringer, which reaches String dynamically.
type Name string

func (n Name) String() string { return string(n) }

var _ fmt.Stringer = Name("")

func run() int { return Reached(Options{Depth: 1}) }
