package memio

// Resident returns the page count ValidTargetAddr reads without the lock.
func Resident(a *Accessor) int { return int(a.resident.Load()) }

// Lock holds the accessor's mutex until the returned function is called.
func Lock(a *Accessor) (unlock func()) {
	a.mu.Lock()
	return a.mu.Unlock
}
