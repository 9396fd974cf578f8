package psl

// PresolveDifferential exposes the presolve differential check to the
// external test package, which grounds real scenarios through core.
var PresolveDifferential = presolveDifferential
