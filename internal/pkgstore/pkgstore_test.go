package pkgstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestPackageHoldsNoPointers guards what a store's backing arrays cost the
// collector: a Package is plain data, so a []Package is allocated no-scan,
// and it stays at 40 bytes, the tag sitting in the padding after Mobile.
func TestPackageHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %v: the collector would scan every store's packages", path, ty.Kind())
		}
	}
	walk("Package", reflect.TypeOf(Package{}))
	if size := unsafe.Sizeof(Package{}); size > 40 {
		t.Errorf("Package is %d bytes, want at most 40", size)
	}
}

func TestNewParamsSmallW(t *testing.T) {
	p := NewParams(16, 100, 1)
	if p.Phi != 1 {
		t.Fatalf("Phi = %d, want 1 (W < 2U)", p.Phi)
	}
	// ψ = 4·(⌈log2 16⌉+2)·⌈16/1⌉ = 4·6·16 = 384.
	if p.Psi != 384 {
		t.Fatalf("Psi = %d, want 384", p.Psi)
	}
	if p.Psi%4 != 0 {
		t.Fatalf("Psi = %d must be divisible by 4", p.Psi)
	}
}

func TestNewParamsLargeW(t *testing.T) {
	p := NewParams(10, 1000, 200)
	// φ = ⌊200/20⌋ = 10.
	if p.Phi != 10 {
		t.Fatalf("Phi = %d, want 10", p.Phi)
	}
	// ψ = 4·(⌈log2 10⌉+2)·max(⌈10/200⌉,1) = 4·6·1 = 24.
	if p.Psi != 24 {
		t.Fatalf("Psi = %d, want 24", p.Psi)
	}
}

func TestNewParamsClamps(t *testing.T) {
	p := NewParams(0, 5, 0)
	if p.U != 1 || p.W != 1 {
		t.Fatalf("U, W = %d, %d; want clamped to 1, 1", p.U, p.W)
	}
	if p.Phi < 1 || p.Psi < 1 {
		t.Fatalf("Phi=%d Psi=%d must be positive", p.Phi, p.Psi)
	}
}

func TestMobileSizeAndDistances(t *testing.T) {
	p := NewParams(16, 100, 1)
	if got := p.MobileSize(0); got != p.Phi {
		t.Fatalf("MobileSize(0) = %d, want φ=%d", got, p.Phi)
	}
	if got := p.MobileSize(3); got != 8*p.Phi {
		t.Fatalf("MobileSize(3) = %d, want 8φ", got)
	}
	if got := p.UKDistance(0); got != 3*p.Psi/2 {
		t.Fatalf("UKDistance(0) = %d, want 3ψ/2 = %d", got, 3*p.Psi/2)
	}
	if got := p.UKDistance(2); got != 6*p.Psi {
		t.Fatalf("UKDistance(2) = %d, want 6ψ", got)
	}
	if got := p.DomainSize(0); got != p.Psi/2 {
		t.Fatalf("DomainSize(0) = %d, want ψ/2", got)
	}
	if got := p.DomainSize(3); got != 4*p.Psi {
		t.Fatalf("DomainSize(3) = %d, want 4ψ", got)
	}
}

func TestIsFillerDistance(t *testing.T) {
	p := NewParams(16, 100, 1)
	psi := p.Psi
	tests := []struct {
		level int
		d     int64
		want  bool
	}{
		{0, 0, true},
		{0, 2 * psi, true},
		{0, 2*psi + 1, false},
		{1, 2 * psi, false},     // boundary excluded (strict >)
		{1, 2*psi + 1, true},    // just inside
		{1, 4 * psi, true},      // upper boundary included
		{1, 4*psi + 1, false},   // above
		{2, 4*psi + 1, true},    // level-2 window starts after 4ψ
		{2, 8 * psi, true},      //
		{2, 8*psi + 100, false}, //
	}
	for _, tc := range tests {
		if got := p.isFillerDistance(tc.level, tc.d); got != tc.want {
			t.Fatalf("isFillerDistance(%d, %d) = %v, want %v", tc.level, tc.d, got, tc.want)
		}
	}
}

func TestRootLevel(t *testing.T) {
	p := NewParams(16, 100, 1)
	psi := p.Psi
	tests := []struct {
		d    int64
		want int
	}{
		{0, 0}, {1, 0}, {2 * psi, 0}, {2*psi + 1, 1}, {4 * psi, 1}, {4*psi + 1, 2}, {16 * psi, 3},
	}
	for _, tc := range tests {
		if got := p.RootLevel(tc.d); got != tc.want {
			t.Fatalf("RootLevel(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Consistency: the root at distance d must satisfy the filler condition
	// for a fresh package at level RootLevel(d), for any d ≥ 0, and no other
	// level does: the filler windows partition the distances, which is what
	// lets the whiteboards' level mask answer the filler test with one bit.
	for d := int64(0); d < 40*psi; d += 7 {
		j := p.RootLevel(d)
		for level := 0; level <= p.MaxLevel+2; level++ {
			if got := p.isFillerDistance(level, d); got != (level == j) {
				t.Fatalf("isFillerDistance(%d, %d) = %v with RootLevel(%d) = %d", level, d, got, d, j)
			}
		}
	}
}

func TestIntervalSplit(t *testing.T) {
	iv := Interval{Lo: 10, Hi: 17}
	lo, hi, err := iv.split()
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if lo != (Interval{10, 13}) || hi != (Interval{14, 17}) {
		t.Fatalf("Split = %v, %v", lo, hi)
	}
	if _, _, err := (Interval{1, 3}).split(); err == nil {
		t.Fatal("odd split should fail")
	}
	if (Interval{}).Valid() {
		t.Fatal("zero interval should be invalid")
	}
	if (Interval{5, 4}).Len() != 0 {
		t.Fatal("inverted interval should have length 0")
	}
}

func TestPackageSplitChain(t *testing.T) {
	p := NewParams(16, 1000, 1)
	pk := NewMobile(p, 3)
	if pk.Size != 8*p.Phi {
		t.Fatalf("level-3 size = %d, want 8φ", pk.Size)
	}
	var lower Package
	if err := pk.Split(&lower); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if lower.Level != 2 || pk.Level != 2 || lower.Size != 4*p.Phi || pk.Size != 4*p.Phi || !lower.Mobile {
		t.Fatalf("split results wrong: %+v %+v", lower, pk)
	}
	// Chain down to level 0 and convert to static.
	cur := pk
	for cur.Level > 0 {
		if err := cur.Split(&lower); err != nil {
			t.Fatalf("Split at level %d: %v", cur.Level, err)
		}
	}
	if err := cur.BecomeStatic(); err != nil {
		t.Fatalf("BecomeStatic: %v", err)
	}
	if cur.Mobile || cur.Size != p.Phi {
		t.Fatalf("static conversion wrong: %+v", cur)
	}
	if err := cur.Split(&lower); !errors.Is(err, errNotMobile) {
		t.Fatalf("splitting static: err = %v, want errNotMobile", err)
	}
}

func TestSplitLevelZeroFails(t *testing.T) {
	p := NewParams(16, 100, 1)
	pk := NewMobile(p, 0)
	var lower Package
	if err := pk.Split(&lower); !errors.Is(err, errLevelZero) {
		t.Fatalf("err = %v, want errLevelZero", err)
	}
	if pk != NewMobile(p, 0) || lower != (Package{}) {
		t.Fatalf("a failed split changed the packages: %+v %+v", pk, lower)
	}
	if l1 := NewMobile(p, 1); l1.BecomeStatic() == nil {
		t.Fatal("BecomeStatic at level 1 should fail")
	}
}

func TestSerialsSplitAndGrant(t *testing.T) {
	p := NewParams(4, 64, 1) // φ = 1
	pk := NewMobile(p, 2)
	pk.Serials, pk.Tag = Interval{Lo: 100, Hi: 103}, 7
	var lower Package
	if err := pk.Split(&lower); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if lower.Serials != (Interval{100, 101}) || pk.Serials != (Interval{102, 103}) {
		t.Fatalf("serials after split: %v %v", lower.Serials, pk.Serials)
	}
	if lower.Tag != 0 || pk.Tag != 0 {
		t.Fatalf("tags after split: %d %d, want both dropped", lower.Tag, pk.Tag)
	}
	q2 := pk
	if err := q2.Split(&lower); err != nil {
		t.Fatalf("Split: %v", err)
	}
	if err := q2.BecomeStatic(); err != nil {
		t.Fatalf("BecomeStatic: %v", err)
	}
	serial, empty, err := q2.TakePermit()
	if err != nil {
		t.Fatalf("TakePermit: %v", err)
	}
	if serial != 103 || !empty {
		t.Fatalf("TakePermit = %d, empty=%v; want 103, true", serial, empty)
	}
	if _, _, err := q2.TakePermit(); !errors.Is(err, errEmptyStatic) {
		t.Fatalf("TakePermit on empty: %v, want errEmptyStatic", err)
	}
}

func TestStoreBasics(t *testing.T) {
	p := NewParams(16, 100, 1)
	s := NewStore()
	if !s.Empty() {
		t.Fatal("new store should be empty")
	}
	m0 := NewMobile(p, 0)
	m2 := NewMobile(p, 2)
	s.AddMobile(m0)
	s.AddMobile(m2)
	st := NewMobile(p, 0)
	if err := st.BecomeStatic(); err != nil {
		t.Fatalf("BecomeStatic: %v", err)
	}
	if in := s.AddStatic(st); *in != st {
		t.Fatalf("AddStatic returned %+v, want %+v", *in, st)
	}

	if got := s.PermitCount(); got != m0.Size+m2.Size+st.Size {
		t.Fatalf("PermitCount = %d", got)
	}
	static := s.Static()
	if static != &s.Statics()[0] || *static != st {
		t.Fatal("Static() should return the stored static package")
	}
	// Filler lookup prefers the smallest qualifying level.
	if got := s.MobileAtFillerDistance(p, p.Psi); got != &s.Mobiles()[0] {
		t.Fatalf("filler at d=ψ = %+v, want level-0 package", got)
	}
	inM2 := s.MobileAtFillerDistance(p, 5*p.Psi)
	if inM2 != &s.Mobiles()[1] {
		t.Fatalf("filler at d=5ψ = %+v, want level-2 package", inM2)
	}
	if got := s.MobileAtFillerDistance(p, 3*p.Psi); got != nil {
		t.Fatalf("filler at d=3ψ = %+v, want nil", got)
	}
	// A package is removed by its address in the store, not by its value.
	if err := s.RemoveMobile(&m2); !errors.Is(err, errNotInStore) {
		t.Fatalf("remove by a copy: %v", err)
	}
	if err := s.RemoveMobile(inM2); err != nil {
		t.Fatalf("RemoveMobile: %v", err)
	}
	if len(s.Mobiles()) != 1 || s.Mobiles()[0] != m0 {
		t.Fatalf("after RemoveMobile: %+v, want only the level-0 package", s.Mobiles())
	}
	if err := s.RemoveStatic(static); err != nil {
		t.Fatalf("RemoveStatic: %v", err)
	}
}

func TestStoreRejectAndClear(t *testing.T) {
	s := NewStore()
	if s.HasReject() {
		t.Fatal("no reject initially")
	}
	s.SetReject()
	if !s.HasReject() {
		t.Fatal("reject flag lost")
	}
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear should empty the store")
	}
}

// TestStorePresence pins what the zero value means to a table of stores held
// by value: no store at that id. NewStore and RestoreStore give a present
// one, Clear empties a store without removing it, and assigning the zero
// value over an entry removes it.
func TestStorePresence(t *testing.T) {
	table := make([]Store, 3)
	if table[1].Present() || !table[1].Empty() {
		t.Fatal("the zero Store is a store")
	}
	table[1] = NewStore()
	if !table[1].Present() || !table[1].Empty() {
		t.Fatal("NewStore: want a present, empty store")
	}
	table[1].AddMobile(NewMobile(NewParams(16, 100, 1), 1))
	table[1].SetReject()
	restored, err := RestoreStore(table[1].State())
	if err != nil {
		t.Fatal(err)
	}
	if table[2] = restored; !table[2].Present() || !reflect.DeepEqual(table[2].State(), table[1].State()) {
		t.Fatalf("RestoreStore: present %v, state %+v, want present and %+v", table[2].Present(), table[2].State(), table[1].State())
	}
	if empty, err := RestoreStore(StoreState{}); err != nil || !empty.Present() {
		t.Fatalf("RestoreStore of an empty state: present %v, err %v", empty.Present(), err)
	}
	if table[1].Clear(); !table[1].Present() || !table[1].Empty() {
		t.Fatal("Clear: want the store kept and emptied")
	}
	if table[2] = (Store{}); table[2].Present() || !table[2].Empty() {
		t.Fatal("assigning the zero Store left a store behind")
	}
}

// TestRestoreStoreRefuses: a captured store state may come off disk, so
// RestoreStore refuses a package no store could hold. A package's Tag is no
// part of the state: a store of tagged packages captures to the state of the
// same store untagged.
func TestRestoreStoreRefuses(t *testing.T) {
	static := Package{Size: 3, Serials: Interval{Lo: 10, Hi: 12}}
	mobile := Package{Level: 1, Size: 2, Mobile: true}
	for _, tc := range []struct {
		name string
		st   StoreState
	}{
		{"negative size", StoreState{Statics: []Package{{Size: -1}}}},
		{"serials not matching size", StoreState{Statics: []Package{{Size: 2, Serials: Interval{Lo: 10, Hi: 12}}}}},
		{"mobile package in the static section", StoreState{Statics: []Package{static, mobile}}},
		{"static package in the mobile section", StoreState{Mobiles: []Package{mobile, static}}},
	} {
		if _, err := RestoreStore(tc.st); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
	}

	plain, tagged := NewStore(), NewStore()
	for i, s := range []*Store{&plain, &tagged} {
		for _, pk := range []Package{static, {Size: 1}} {
			pk.Tag = uint32(7 * i)
			s.AddStatic(pk)
		}
		pk := mobile
		pk.Tag = uint32(9 * i)
		s.AddMobile(pk)
	}
	if got, want := tagged.State(), plain.State(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tagged store captures to %+v, untagged to %+v", got, want)
	}
	if tagged.Statics()[0].Tag != 7 {
		t.Fatal("capturing a store cleared the tags of its live packages")
	}
	if _, err := RestoreStore(plain.State()); err != nil {
		t.Fatalf("a captured store does not restore: %v", err)
	}
}

func TestStoreTakeAllAbsorb(t *testing.T) {
	p := NewParams(16, 100, 1)
	donor := NewStore()
	donor.SetReject()
	donor.AddMobile(NewMobile(p, 1))
	st := NewMobile(p, 0)
	if err := st.BecomeStatic(); err != nil {
		t.Fatal(err)
	}
	donor.AddStatic(st)

	pkgs, hadReject := donor.TakeAll()
	if len(pkgs) != 2 || !hadReject {
		t.Fatalf("TakeAll = %d pkgs, reject=%v; want 2, true", len(pkgs), hadReject)
	}
	if len(donor.Mobiles()) != 0 || len(donor.Statics()) != 0 {
		t.Fatal("TakeAll should empty the donor's packages")
	}

	parent := NewStore()
	parent.Absorb(pkgs, hadReject)
	if !parent.HasReject() {
		t.Fatal("parent should inherit reject")
	}
	if got := parent.PermitCount(); got != st.Size+p.MobileSize(1) {
		t.Fatalf("parent PermitCount = %d", got)
	}
	// Absorb drops empty packages.
	mobiles := len(parent.Mobiles())
	parent.Absorb([]Package{{Mobile: true, Level: 0, Size: 0}}, false)
	if len(parent.Mobiles()) != mobiles {
		t.Fatal("empty package absorbed")
	}
}

func TestMemoryBits(t *testing.T) {
	p := NewParams(1024, 1<<20, 1)
	s := NewStore()
	base := s.MemoryBits(p)
	if base != 1 {
		t.Fatalf("empty store bits = %d, want 1", base)
	}
	s.AddMobile(NewMobile(p, 0))
	s.AddMobile(NewMobile(p, 0)) // same level: still one counter
	oneLevel := s.MemoryBits(p)
	s.AddMobile(NewMobile(p, 5))
	twoLevels := s.MemoryBits(p)
	if twoLevels-oneLevel != oneLevel-base {
		t.Fatalf("per-level cost inconsistent: %d, %d, %d", base, oneLevel, twoLevels)
	}
	st := NewMobile(p, 0)
	if err := st.BecomeStatic(); err != nil {
		t.Fatal(err)
	}
	s.AddStatic(st)
	if s.MemoryBits(p) <= twoLevels {
		t.Fatal("static packages should add O(log M) bits")
	}
}

func TestSplitPreservesPermitsProperty(t *testing.T) {
	// Property: any sequence of splits preserves the total permit count,
	// and every produced mobile package has size 2^level·φ.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewParams(64, 1<<20, int64(1+rng.Intn(1000)))
		level := 1 + rng.Intn(6)
		root := NewMobile(p, level)
		total := root.Size
		queue := []Package{root}
		var sum int64
		for len(queue) > 0 {
			pk := queue[0]
			queue = queue[1:]
			if pk.Level > 0 && rng.Intn(2) == 0 {
				var lower Package
				if err := pk.Split(&lower); err != nil {
					return false
				}
				queue = append(queue, lower, pk)
				continue
			}
			if pk.Size != p.MobileSize(pk.Level) {
				return false
			}
			sum += pk.Size
		}
		return sum == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSize pins what a store costs the table that holds one for every
// node id: one slice header for all its packages and 8 bytes for the count of
// statics and the two flags, 32 bytes where a word is 8.
func TestStoreSize(t *testing.T) {
	if size, want := unsafe.Sizeof(Store{}), unsafe.Sizeof([]Package(nil))+8; size != want {
		t.Fatalf("a store takes %d bytes, want %d", size, want)
	}
}

// twoSlices is the store as two slices, one a section, which is what the
// one-slice Store must answer like: each section in the order of its own
// appends and swap-removes.
type twoSlices struct {
	statics, mobiles []Package
	reject           bool
}

func (m *twoSlices) swapRemove(pkgs *[]Package, i int) {
	ps := *pkgs
	ps[i] = ps[len(ps)-1]
	*pkgs = ps[:len(ps)-1]
}

// firstStatic returns the index of the first non-empty static, or -1.
func (m *twoSlices) firstStatic() int {
	for i, pk := range m.statics {
		if pk.Size > 0 {
			return i
		}
	}
	return -1
}

func (m *twoSlices) permits() int64 {
	var n int64
	for _, pk := range append(append([]Package(nil), m.statics...), m.mobiles...) {
		n += pk.Size
	}
	return n
}

// TestStoreMatchesTwoSliceModel replays random sequences of every store
// operation against the two-slice model and compares, after every step, the
// sections, the captured state, the permit count and the package each call
// handed out: AddStatic and AddMobile return the package they stored, Static
// and MobileAtFillerDistance point at the slot the model names, and
// TakeStaticPermit and TakeAll give what the model gives.
func TestStoreMatchesTwoSliceModel(t *testing.T) {
	p := NewParams(64, 1<<20, 1<<10)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, m := NewStore(), &twoSlices{}
		serial := int64(1)
		newPackage := func(mobile bool) Package {
			pk := Package{Size: 1 + rng.Int63n(4), Tag: uint32(rng.Intn(100))}
			if mobile {
				pk = NewMobile(p, rng.Intn(4))
				pk.Tag = uint32(rng.Intn(100))
			}
			if rng.Intn(2) == 0 {
				pk.Serials = Interval{Lo: serial, Hi: serial + pk.Size - 1}
				serial += pk.Size
			}
			return pk
		}
		for step := 0; step < 400; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			}
			switch op := rng.Intn(14); {
			case op < 3:
				pk := newPackage(false)
				if got := s.AddStatic(pk); *got != pk {
					fail("AddStatic returned %+v, stored %+v", *got, pk)
				}
				m.statics = append(m.statics, pk)
			case op < 6:
				pk := newPackage(true)
				if got := s.AddMobile(pk); *got != pk {
					fail("AddMobile returned %+v, stored %+v", *got, pk)
				}
				m.mobiles = append(m.mobiles, pk)
			case op == 6 && len(m.statics) > 0:
				i := rng.Intn(len(m.statics))
				if err := s.RemoveStatic(&s.Statics()[i]); err != nil {
					fail("RemoveStatic: %v", err)
				}
				m.swapRemove(&m.statics, i)
			case op == 7 && len(m.mobiles) > 0:
				i := rng.Intn(len(m.mobiles))
				if err := s.RemoveStatic(&s.Mobiles()[i]); !errors.Is(err, errNotInStore) {
					fail("RemoveStatic of a mobile package: %v", err)
				}
				if err := s.RemoveMobile(&s.Mobiles()[i]); err != nil {
					fail("RemoveMobile: %v", err)
				}
				m.swapRemove(&m.mobiles, i)
			case op == 8:
				got, ok := s.TakeStaticPermit()
				i := m.firstStatic()
				if ok != (i >= 0) {
					fail("TakeStaticPermit ok = %v, the model has static %d", ok, i)
				}
				if i >= 0 {
					want, empty, _ := m.statics[i].TakePermit()
					if got != want {
						fail("TakeStaticPermit gave serial %d, want %d", got, want)
					}
					if empty {
						m.swapRemove(&m.statics, i)
					}
				}
			case op == 9:
				pkgs := make([]Package, rng.Intn(5))
				for i := range pkgs {
					pkgs[i] = newPackage(rng.Intn(2) == 0)
					if rng.Intn(4) == 0 {
						pkgs[i].Size, pkgs[i].Serials = 0, Interval{}
					}
				}
				reject := rng.Intn(8) == 0
				s.Absorb(pkgs, reject)
				for _, pk := range pkgs {
					switch {
					case pk.Size <= 0:
					case pk.Mobile:
						m.mobiles = append(m.mobiles, pk)
					default:
						m.statics = append(m.statics, pk)
					}
				}
				m.reject = m.reject || reject
			case op == 10 && rng.Intn(4) == 0:
				got, hadReject := s.TakeAll()
				want := append(append([]Package{}, m.statics...), m.mobiles...)
				if !reflect.DeepEqual(got, want) || hadReject != m.reject {
					fail("TakeAll = %+v, %v; want %+v, %v", got, hadReject, want, m.reject)
				}
				m.statics, m.mobiles = nil, nil
			case op == 11 && rng.Intn(8) == 0:
				s.Clear()
				*m = twoSlices{}
			case op == 12:
				s.SetReject()
				m.reject = true
			case op == 13:
				d := rng.Int63n(20 * p.Psi)
				got, want := s.MobileAtFillerDistance(p, d), -1
				for i, pk := range m.mobiles {
					if p.isFillerDistance(pk.Level, d) && (want < 0 || pk.Level < m.mobiles[want].Level) {
						want = i
					}
				}
				if want < 0 && got != nil || want >= 0 && got != &s.Mobiles()[want] {
					fail("MobileAtFillerDistance(%d) = %p, the model names mobile %d", d, got, want)
				}
			}
			if !reflect.DeepEqual(s.Statics(), m.statics) && len(s.Statics())+len(m.statics) > 0 {
				fail("statics %+v, the model has %+v", s.Statics(), m.statics)
			}
			if !reflect.DeepEqual(s.Mobiles(), m.mobiles) && len(s.Mobiles())+len(m.mobiles) > 0 {
				fail("mobiles %+v, the model has %+v", s.Mobiles(), m.mobiles)
			}
			want := StoreState{Reject: m.reject, Statics: untagged(m.statics), Mobiles: untagged(m.mobiles)}
			if got := s.State(); !reflect.DeepEqual(got, want) {
				fail("State %+v, the model's %+v", got, want)
			}
			if got, want := s.PermitCount(), m.permits(); got != want {
				fail("PermitCount %d, the model holds %d", got, want)
			}
			if i := m.firstStatic(); i < 0 && s.Static() != nil || i >= 0 && s.Static() != &s.Statics()[i] {
				fail("Static() = %p, the model names static %d", s.Static(), i)
			}
			if s.Empty() != (!m.reject && len(m.statics)+len(m.mobiles) == 0) {
				fail("Empty() = %v", s.Empty())
			}
		}
	}
}
