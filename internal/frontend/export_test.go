package frontend

// Hooks for the external test package.
var (
	DiffOracle   = diffOracle
	CompileSeeds = compileSeeds
	OracleSeeds  = oracleSeeds
)

const (
	MaxNesting     = maxNesting
	MaxMemoryPairs = maxMemoryPairs
)
