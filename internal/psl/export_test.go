package psl

// The selection-shaped MRF generators, exposed to the external test
// package, which checks its presolve against them.
var (
	SelectionMRF     = selectionMRF
	SelectionPairMRF = selectionPairMRF
)

// EncodingDifferential exposes the pair-versus-hinge differential to
// the external test package, which grounds real scenarios through core.
var EncodingDifferential = encodingDifferential
