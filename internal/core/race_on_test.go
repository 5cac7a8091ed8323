//go:build race

package core

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
