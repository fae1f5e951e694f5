package pkgstore

import (
	"fmt"
	"slices"
)

// This file is the package store's state-capture boundary for the
// durability engine: StoreState is the plain-data image of one node's
// whiteboard, exact enough to rebuild the store permit for permit. A
// Package is plain data, so it is its own snapshot.

// StoreState is the captured state of one Store. Statics and Mobiles keep
// their in-store order, so a restored store answers requests (and drains
// packages) in exactly the order the original would have. Every package's
// Tag is zero: a tag names a package to a live analysis, not to the disk.
type StoreState struct {
	Reject  bool
	Statics []Package
	Mobiles []Package
}

// State captures the store's complete contents.
func (s *Store) State() StoreState {
	return StoreState{Reject: s.reject, Statics: untagged(s.Statics()), Mobiles: untagged(s.Mobiles())}
}

// untagged copies pkgs with every Tag zeroed (nil when there are none).
func untagged(pkgs []Package) []Package {
	if len(pkgs) == 0 {
		return nil
	}
	out := slices.Clone(pkgs)
	for i := range out {
		out[i].Tag = 0
	}
	return out
}

// RestoreStore rebuilds a store from a captured state. The state may come
// off disk, so a package no store could hold is refused: a negative size,
// serials that do not number its permits, or a package in the other kind's
// section.
func RestoreStore(st StoreState) (Store, error) {
	if err := checkSection(st.Statics, false); err != nil {
		return Store{}, err
	}
	if err := checkSection(st.Mobiles, true); err != nil {
		return Store{}, err
	}
	s := NewStore()
	s.reject = st.Reject
	if n := len(st.Statics) + len(st.Mobiles); n > 0 {
		s.pkgs = append(append(make([]Package, 0, n), st.Statics...), st.Mobiles...)
		s.statics = int32(len(st.Statics))
	}
	return s, nil
}

func checkSection(pkgs []Package, mobile bool) error {
	for _, pk := range pkgs {
		switch {
		case pk.Size < 0:
			return fmt.Errorf("pkgstore: restore package with size %d", pk.Size)
		case pk.Serials.Valid() && pk.Serials.Len() != pk.Size:
			return fmt.Errorf("pkgstore: restore package carrying %d serials for %d permits",
				pk.Serials.Len(), pk.Size)
		case pk.Mobile && !mobile:
			return fmt.Errorf("pkgstore: mobile package in static section")
		case !pk.Mobile && mobile:
			return fmt.Errorf("pkgstore: static package in mobile section")
		}
	}
	return nil
}
