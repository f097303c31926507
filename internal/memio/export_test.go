package memio

// Lock holds the accessor's mutex until the returned function is called.
func Lock(a *Accessor) (unlock func()) {
	a.mu.Lock()
	return a.mu.Unlock
}
