//go:build !race

package crypto

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
