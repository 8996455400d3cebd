// The benchmark is a module of its own so the repository's build and tests
// neither compile nor run it; the p2go/ import-path prefix keeps the
// program's internal packages importable.
module p2go/bench

go 1.22

require p2go v0.0.0

replace p2go => ../
