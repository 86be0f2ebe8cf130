package kcm

// labelTable finds the row or column a label names with two slice
// reads instead of a hash. Every label is a processor's offset plus a
// sequence number (§5.2), so label l sits in band (l−1)/Stride at slot
// (l−1)%Stride; a label that runs past Stride lands in the next band
// and still works. A label below 1, in a band the table lacks, past
// its band's end or in a slot no label filled reads as absent (nil).
type labelTable[T any] struct {
	bands [][]*T
}

func rowLabel(r *Row) int64 { return r.ID }

func colLabel(c *Col) int64 { return c.ID }

// place returns the band and slot of label l ≥ 1.
func place(l int64) (band, slot int64) { return (l - 1) / Stride, (l - 1) % Stride }

// get returns the element labeled l, or nil.
func (t *labelTable[T]) get(l int64) *T {
	if l < 1 {
		return nil
	}
	b, s := place(l)
	if b >= int64(len(t.bands)) || s >= int64(len(t.bands[b])) {
		return nil
	}
	return t.bands[b][s]
}

// fill files every element of items, labeled by label, into the
// table in place of what it held. One pass finds each band's last
// slot, so a band is allocated at most once, at its exact length; a
// band whose array is long enough is reused, cleared first, so a slot
// no label fills reads as absent and keeps nothing alive.
func (t *labelTable[T]) fill(items []*T, label func(*T) int64) {
	var n []int64
	for _, it := range items {
		b, s := place(label(it))
		if b >= int64(len(n)) {
			n = append(n, make([]int64, b+1-int64(len(n)))...)
		}
		n[b] = max(n[b], s+1)
	}
	for _, band := range t.bands {
		clear(band)
	}
	t.bands = resize(t.bands, len(n))
	for b := range n {
		t.bands[b] = resize(t.bands[b], int(n[b]))
	}
	for _, it := range items {
		b, s := place(label(it))
		t.bands[b][s] = it
	}
}
