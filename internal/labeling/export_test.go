package labeling

// IsAncestor is the ancestry query, for the external tests.
var IsAncestor = isAncestor
