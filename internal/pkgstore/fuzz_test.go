package pkgstore

import (
	"testing"
)

// FuzzPackageSplitMerge drives random package lifecycles — root creation
// with serial intervals, drop-point splits, graceful-deletion style
// store-to-store transfers, static conversion, and permit grants — and
// checks the conservation invariants the controller's safety rests on:
//
//   - permits are conserved: storage + stored packages + granted == M;
//   - a package's serial interval always matches its size;
//   - granted serials are pairwise distinct and lie in [1, M].
//
// The first three bytes pick the (U, M, W) parameters; each following
// pair of bytes is one operation.
func FuzzPackageSplitMerge(f *testing.F) {
	f.Add([]byte("abcdefghijklmnop"))
	f.Add([]byte("\x05\x40\x08" + "0123456789"))
	f.Add([]byte{40, 200, 80, 0, 3, 1, 0, 4, 0, 2, 1, 3, 0, 4, 1, 4, 2, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		u := int64(data[0]%64) + 1
		w := int64(data[1]%128) + 1
		m := int64(data[2])*2 + 64
		p := NewParams(u, m, w)

		storage := m
		unissued := Interval{Lo: 1, Hi: m}       // serials still backing the storage
		table := []Store{NewStore(), NewStore()} // by value, as the whiteboards hold them
		stores := []*Store{&table[0], &table[1]}
		granted := int64(0)
		seen := make(map[int64]struct{})

		check := func(op string) {
			t.Helper()
			total := storage + granted
			for _, s := range stores {
				total += s.PermitCount()
				for _, pk := range s.Mobiles() {
					if !pk.Mobile {
						t.Fatalf("%s: static package in mobile section", op)
					}
					if pk.Serials.Valid() && pk.Serials.Len() != pk.Size {
						t.Fatalf("%s: mobile carries %d serials for %d permits", op, pk.Serials.Len(), pk.Size)
					}
				}
				for _, pk := range s.Statics() {
					if pk.Mobile {
						t.Fatalf("%s: mobile package in static section", op)
					}
					if pk.Serials.Valid() && pk.Serials.Len() != pk.Size {
						t.Fatalf("%s: static carries %d serials for %d permits", op, pk.Serials.Len(), pk.Size)
					}
				}
			}
			if total != m {
				t.Fatalf("%s: conservation broken: storage %d + stored + granted %d = %d, want M=%d",
					op, storage, granted, total, m)
			}
		}

		firstMobile := func(s *Store, minLevel int) *Package {
			for i := range s.Mobiles() {
				if pk := &s.Mobiles()[i]; pk.Level >= minLevel {
					return pk
				}
			}
			return nil
		}

		for i := 3; i+1 < len(data); i += 2 {
			op, sel := data[i]%5, int(data[i+1])
			s := stores[sel%2]
			switch op {
			case 0: // fund a fresh mobile package from the storage
				level := sel % (p.MaxLevel + 1)
				size := p.MobileSize(level)
				if storage < size || unissued.Len() < size {
					continue
				}
				pk := NewMobile(p, level)
				pk.Serials = Interval{Lo: unissued.Lo, Hi: unissued.Lo + size - 1}
				unissued.Lo += size
				storage -= size
				s.AddMobile(pk)
				check("create")
			case 1: // drop-point split
				found := firstMobile(s, 1)
				if found == nil {
					continue
				}
				pk := *found
				if err := s.RemoveMobile(found); err != nil {
					t.Fatalf("remove for split: %v", err)
				}
				var lower Package
				if err := pk.Split(&lower); err != nil {
					t.Fatalf("split level %d: %v", pk.Level, err)
				}
				s.AddMobile(lower)
				s.AddMobile(pk)
				check("split")
			case 2: // graceful-deletion handoff: move everything across
				from, to := stores[sel%2], stores[(sel+1)%2]
				pkgs, rej := from.TakeAll()
				to.Absorb(pkgs, rej)
				check("transfer")
			case 3: // arrival: a level-0 mobile converts to static
				found := firstMobile(s, 0)
				if found == nil || found.Level != 0 {
					continue
				}
				pk := *found
				if err := s.RemoveMobile(found); err != nil {
					t.Fatalf("remove for conversion: %v", err)
				}
				if err := pk.BecomeStatic(); err != nil {
					t.Fatalf("become static: %v", err)
				}
				s.AddStatic(pk)
				check("become-static")
			case 4: // grant one permit from node-local static state
				serial, ok := s.TakeStaticPermit()
				if !ok {
					continue
				}
				granted++
				if serial < 1 || serial > m {
					t.Fatalf("granted serial %d outside [1, %d]", serial, m)
				}
				if _, dup := seen[serial]; dup {
					t.Fatalf("serial %d granted twice", serial)
				}
				seen[serial] = struct{}{}
				check("grant")
			}
		}
		check("final")
	})
}
