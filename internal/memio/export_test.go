package memio

// Resident returns the page count ValidTargetAddr reads without the lock.
func Resident(a *Accessor) int { return int(a.resident.Load()) }
