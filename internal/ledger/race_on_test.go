//go:build race

package ledger

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
