package storage

// MediumOf hands the contract suite the byte store under a device, so it
// can damage stored bytes behind the device's back.
func MediumOf(d *Device) Medium { return d.m }

// OOBOf reports the out-of-band entry the device holds for page (the
// zero entry for an erased page).
func OOBOf(d *Device, page int) OOB {
	if st := d.state(page); st != nil {
		return st.OOB
	}
	return OOB{}
}
