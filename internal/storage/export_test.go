package storage

// MediumOf hands the contract suite the byte store under a device, so it
// can damage stored bytes behind the device's back.
func MediumOf(d *Device) Medium { return d.m }
