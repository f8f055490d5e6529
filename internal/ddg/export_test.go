package ddg

// CheckOracles exposes checkOracles to the external test package, whose
// inputs come from packages that import ddg.
var CheckOracles = checkOracles
