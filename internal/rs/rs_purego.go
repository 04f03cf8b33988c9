//go:build purego

package rs

// vectoredSyndromes is false under the purego build tag: every encode and
// syndrome computation runs the per-way byte-at-a-time reference loops,
// making this build the pinned baseline the default build is
// differentially tested against.
const vectoredSyndromes = false
