//go:build race

package simnet

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
