//go:build race

package link

// raceBuild reports a -race build, whose runtime drops a random quarter of
// sync.Pool puts on purpose.
const raceBuild = true
