package memio

// Lock holds the accessor's mutex until the returned function is called.
func Lock(a *Accessor) (unlock func()) {
	a.mu.Lock()
	return a.mu.Unlock
}

// SetGeneration sets the page cache's generation, so a test can take it
// to the point where the next Flush wraps it.
func SetGeneration(a *Accessor, g uint32) { a.gen.Store(g) }
