//go:build !purego

package rs

// slicedRemainder selects the stride-3 slicing-by-8 remainder kernel for
// encode, clean check and dirty decode. Constant, so every dispatch branch
// folds away at compile time.
const slicedRemainder = true
