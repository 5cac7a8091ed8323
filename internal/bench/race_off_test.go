//go:build !race

package bench

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
