//go:build !race

package fabric

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
