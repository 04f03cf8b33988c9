//go:build !purego

package rs

// vectoredSyndromes selects the table kernels: the stride-3 encode and
// clean check and the word-parallel syndromes. Constant, so every dispatch
// branch folds away at compile time.
const vectoredSyndromes = true
