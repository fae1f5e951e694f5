package tree

// SetIDLimit makes limit the largest id a tree hands out, so that a test
// reaches the end of the id space without growing a tree to 2^32 nodes, and
// returns the func that puts the limit back.
func SetIDLimit(limit NodeID) (restore func()) {
	old := idLimit
	idLimit = limit
	return func() { idLimit = old }
}
