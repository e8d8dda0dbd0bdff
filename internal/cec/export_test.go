package cec

// SameComposition is sameComposition for the external tests, which compose
// the location windows of analysed benchmark circuits.
var SameComposition = sameComposition
