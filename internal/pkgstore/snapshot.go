package pkgstore

import "fmt"

// This file is the package store's state-capture boundary for the
// durability engine: StoreState is the plain-data image of one node's
// whiteboard, exact enough to rebuild the store permit for permit.

// PackageState is the captured state of one permit package.
type PackageState struct {
	Level  int
	Size   int64
	Mobile bool
	// SerialLo/SerialHi mirror Package.Serials (zero values = no serials).
	SerialLo, SerialHi int64
}

// StoreState is the captured state of one Store. Statics and Mobiles keep
// their in-store order, so a restored store answers requests (and drains
// packages) in exactly the order the original would have.
type StoreState struct {
	Reject  bool
	Statics []PackageState
	Mobiles []PackageState
}

func packageState(pk Package) PackageState {
	return PackageState{
		Level:    pk.Level,
		Size:     pk.Size,
		Mobile:   pk.Mobile,
		SerialLo: pk.Serials.Lo,
		SerialHi: pk.Serials.Hi,
	}
}

func (ps PackageState) restore() (Package, error) {
	if ps.Size < 0 {
		return Package{}, fmt.Errorf("pkgstore: restore package with size %d", ps.Size)
	}
	pk := Package{
		Level:   ps.Level,
		Size:    ps.Size,
		Mobile:  ps.Mobile,
		Serials: Interval{Lo: ps.SerialLo, Hi: ps.SerialHi},
	}
	if pk.Serials.Valid() && pk.Serials.Len() != pk.Size {
		return Package{}, fmt.Errorf("pkgstore: restore package carrying %d serials for %d permits",
			pk.Serials.Len(), pk.Size)
	}
	return pk, nil
}

// State captures the store's complete contents.
func (s *Store) State() StoreState {
	st := StoreState{Reject: s.reject}
	for _, pk := range s.statics {
		st.Statics = append(st.Statics, packageState(pk))
	}
	for _, pk := range s.mobiles {
		st.Mobiles = append(st.Mobiles, packageState(pk))
	}
	return st
}

// RestoreStore rebuilds a store from a captured state.
func RestoreStore(st StoreState) (Store, error) {
	s := NewStore()
	s.reject = st.Reject
	for _, ps := range st.Statics {
		pk, err := ps.restore()
		if err != nil {
			return Store{}, err
		}
		if pk.Mobile {
			return Store{}, fmt.Errorf("pkgstore: mobile package in static section")
		}
		s.statics = append(s.statics, pk)
	}
	for _, ps := range st.Mobiles {
		pk, err := ps.restore()
		if err != nil {
			return Store{}, err
		}
		if !pk.Mobile {
			return Store{}, fmt.Errorf("pkgstore: static package in mobile section")
		}
		s.mobiles = append(s.mobiles, pk)
	}
	return s, nil
}
