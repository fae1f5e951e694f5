// Package pkgstore implements the permit/reject package data structure of
// Section 3.1 of the paper.
//
// Permits are grouped into packages. A permit package is either static
// (grants requests at its host node; size between 1 and φ) or mobile (moves
// sets of permits around; size exactly 2^i·φ for its level i). A reject
// package represents infinitely many rejects and is encoded in O(1) bits.
//
// The derived parameters are
//
//	φ = max{⌊W/(2U)⌋, 1}
//	ψ = 4⌈log₂(U)+2⌉·max{⌈U/W⌉, 1}
//
// where U bounds the number of nodes ever to exist and W is the waste
// parameter. Packages optionally carry an explicit serial-number interval;
// the name-assignment application (Section 5.2) uses the serials as node
// identities, while the plain controller leaves intervals unset.
//
// A Package is plain data and a Store keeps its packages by value, so a
// package costs no allocation and a store's backing arrays hold no pointer
// for the collector to scan. A *Package that Static, MobileAtFillerDistance,
// AddMobile or AddStatic hands out points into the store: it is good until
// that store next changes (an add may move the backing array or the mobile
// packages, a removal moves packages into the freed slot), and RemoveMobile
// and RemoveStatic take exactly such a pointer.
package pkgstore

import (
	"errors"
	"fmt"
	"math/bits"
)

// Errors reported by package operations.
var (
	errNotMobile   = errors.New("pkgstore: package is not mobile")
	errLevelZero   = errors.New("pkgstore: cannot split a level-zero package")
	errEmptyStatic = errors.New("pkgstore: static package is empty")
	errNotInStore  = errors.New("pkgstore: package not in store")
)

// Params holds the derived controller parameters for one fixed-U instance.
type Params struct {
	// U is the assumed bound on the number of nodes ever to exist.
	U int64
	// M is the total number of permits.
	M int64
	// W is the waste parameter (forced to at least 1 for the φ/ψ
	// formulas; the W=0 case is handled by the driver layer).
	W int64
	// Phi (φ) is the static package capacity / mobile size unit.
	Phi int64
	// Psi (ψ) is the distance scale of the filler-node search.
	Psi int64
	// MaxLevel bounds mobile package levels: levels lie in [0, MaxLevel].
	MaxLevel int
}

// NewParams derives φ, ψ and the level bound from U, M and W. U must be at
// least 1; W below 1 is clamped to 1 (per the paper, the W=0 controller is
// built from a (M,1)-controller plus a trivial (1,0)-controller).
func NewParams(u, m, w int64) Params {
	if u < 1 {
		u = 1
	}
	if w < 1 {
		w = 1
	}
	phi := w / (2 * u)
	if phi < 1 {
		phi = 1
	}
	ceilLog := int64(ceilLog2(u) + 2)
	uOverW := (u + w - 1) / w
	if uOverW < 1 {
		uOverW = 1
	}
	psi := 4 * ceilLog * uOverW
	// Levels satisfy 2^{k-1}ψ ≤ U (domain invariant 1), so k ≤ log U + 1.
	maxLevel := ceilLog2(u) + 1
	return Params{U: u, M: m, W: w, Phi: phi, Psi: psi, MaxLevel: maxLevel}
}

func ceilLog2(n int64) int {
	if n <= 1 {
		return 0
	}
	k := 0
	v := int64(1)
	for v < n {
		v <<= 1
		k++
	}
	return k
}

// MobileSize returns the size 2^level·φ of a mobile package of the given
// level.
func (p Params) MobileSize(level int) int64 {
	return p.Phi << uint(level)
}

// UKDistance returns d(u, u_k) = 3·2^{k-1}·ψ, the distance from the
// requesting node u to the drop point u_k of the level-k package created by
// procedure Proc (Section 3.1, item 4). ψ is divisible by 4, so the value
// is integral for k = 0 as well.
func (p Params) UKDistance(k int) int64 {
	return 3 * p.Psi << uint(k) / 2
}

// DomainSize returns 2^{k-1}·ψ, the required domain size of a level-k
// mobile package (Domain Invariant 1).
func (p Params) DomainSize(k int) int64 {
	return p.Psi << uint(k) / 2
}

// IsFillerDistance reports whether a mobile package of the given level,
// held by an ancestor at hop distance d from the requesting node, satisfies
// the filler-node condition of Section 3.1:
//
//	level 0:  0 ≤ d ≤ 2ψ
//	level j:  2^j·ψ < d ≤ 2^{j+1}·ψ
func (p Params) IsFillerDistance(level int, d int64) bool {
	if level == 0 {
		return d >= 0 && d <= 2*p.Psi
	}
	lo := p.Psi << uint(level)
	hi := p.Psi << uint(level+1)
	return d > lo && d <= hi
}

// RootLevel returns j(u), the smallest integer j ≥ 0 such that
// d(u, root) ≤ 2^{j+1}·ψ (Section 3.1, item 3b).
func (p Params) RootLevel(dToRoot int64) int {
	j := 0
	for dToRoot > p.Psi<<uint(j+1) {
		j++
	}
	return j
}

// Interval is an inclusive range [Lo, Hi] of permit serial numbers. Serial
// numbers are always ≥ 1 (the name-assignment protocol uses them as node
// identities), so the zero Interval is the sentinel "no serials attached".
type Interval struct {
	Lo, Hi int64
}

// Len returns the number of serials in the interval (0 when invalid).
func (iv Interval) Len() int64 {
	if !iv.Valid() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// Valid reports whether the interval carries serials.
func (iv Interval) Valid() bool { return iv.Lo >= 1 && iv.Hi >= iv.Lo }

// Split halves the interval into a lower and an upper part of equal length.
// The interval length must be even.
func (iv Interval) Split() (lower, upper Interval, err error) {
	n := iv.Len()
	if n%2 != 0 {
		return Interval{}, Interval{}, fmt.Errorf("split interval of odd length %d", n)
	}
	mid := iv.Lo + n/2
	return Interval{Lo: iv.Lo, Hi: mid - 1}, Interval{Lo: mid, Hi: iv.Hi}, nil
}

// Package is one permit package. Reject packages are not represented by
// this type; they are a per-store flag (they carry no state beyond their
// presence). It is plain data, 40 bytes and no pointer
// (TestPackageHoldsNoPointers).
type Package struct {
	// Level is the package level; meaningful only while Mobile.
	Level int
	// Size is the number of permits currently in the package.
	Size int64
	// Mobile distinguishes mobile from static permit packages.
	Mobile bool
	// Tag names the package to an analysis that follows it from store to
	// store (the controller's domain tracker), whose address moves with the
	// store's slice. Zero unless such an analysis stamped it; copying,
	// Absorb and TakeAll keep it, Split and State drop it. It fills the
	// padding after Mobile, so it costs the struct no size.
	Tag uint32
	// Serials optionally carries the explicit permit serial numbers
	// (used by the name-assignment application). Invariant when set:
	// Serials.Len() == Size.
	Serials Interval
}

// NewMobile creates a mobile package of the given level with size 2^level·φ.
func NewMobile(p Params, level int) Package {
	return Package{Level: level, Size: p.MobileSize(level), Mobile: true}
}

// NewMobileWithSerials creates a mobile package carrying explicit serials;
// the interval length must equal the level's size.
func NewMobileWithSerials(p Params, level int, iv Interval) (Package, error) {
	want := p.MobileSize(level)
	if iv.Len() != want {
		return Package{}, fmt.Errorf("serial interval length %d, level %d needs %d", iv.Len(), level, want)
	}
	return Package{Level: level, Size: want, Mobile: true, Serials: iv}, nil
}

// Split splits a mobile package of level k ≥ 1 into two mobile packages of
// level k−1 (Section 3.1, action 2). The receiver is consumed and must not
// be used afterwards. Serial intervals, when present, are halved.
func (pk *Package) Split() (p1, p2 Package, err error) {
	if !pk.Mobile {
		return Package{}, Package{}, errNotMobile
	}
	if pk.Level < 1 {
		return Package{}, Package{}, errLevelZero
	}
	half := pk.Size / 2
	p1 = Package{Level: pk.Level - 1, Size: half, Mobile: true}
	p2 = Package{Level: pk.Level - 1, Size: half, Mobile: true}
	if pk.Serials.Valid() {
		lo, hi, err := pk.Serials.Split()
		if err != nil {
			return Package{}, Package{}, err
		}
		p1.Serials = lo
		p2.Serials = hi
	}
	pk.Size = 0
	return p1, p2, nil
}

// BecomeStatic converts a level-zero mobile package into a static package
// (procedure Proc, k = 0 case).
func (pk *Package) BecomeStatic() error {
	if !pk.Mobile {
		return errNotMobile
	}
	if pk.Level != 0 {
		return fmt.Errorf("become static at level %d: %w", pk.Level, errNotMobile)
	}
	pk.Mobile = false
	return nil
}

// TakePermit removes one permit from a static package, returning its serial
// number (or 0 when the package carries no serials) and whether the package
// is now empty and must be canceled by the caller.
func (pk *Package) TakePermit() (serial int64, empty bool, err error) {
	if pk.Mobile {
		return 0, false, errNotMobile
	}
	if pk.Size <= 0 {
		return 0, false, errEmptyStatic
	}
	if pk.Serials.Valid() {
		serial = pk.Serials.Lo
		pk.Serials.Lo++
	}
	pk.Size--
	return serial, pk.Size == 0, nil
}

// Store is the per-node package storage (the distributed implementation
// calls it the whiteboard's package section). It is made to sit by value in
// a table indexed by node id, so the zero value means "no store at this id":
// a node that was never seen, or one that was deleted. NewStore and
// RestoreStore return a present store; assigning Store{} over an entry
// removes it.
//
// The packages sit in one slice, the statics first and the mobiles after
// them, so a store is one slice header and 8 bytes more: 32 bytes where a
// word is 8. Each section keeps the order of its own adds and swap-removes, which is
// the order Statics, Mobiles and State give: an added static goes in at the
// boundary and moves the mobiles up one, and a removed static's slot takes
// the last static and the gap at the boundary closes.
type Store struct {
	pkgs    []Package
	statics int32 // pkgs[:statics] are the static packages
	present bool
	reject  bool
}

// NewStore returns an empty store.
func NewStore() Store { return Store{present: true} }

// Present reports whether s is a store at all, rather than the zero value
// that marks a table entry without one.
func (s *Store) Present() bool { return s.present }

// HasReject reports whether a reject package resides here.
func (s *Store) HasReject() bool { return s.reject }

// SetReject places a reject package in the store (idempotent).
func (s *Store) SetReject() { s.reject = true }

// ClearReject removes the reject package (used when drivers reset state
// between iterations).
func (s *Store) ClearReject() { s.reject = false }

// AddMobile stores a mobile package and returns it in the store.
func (s *Store) AddMobile(pk Package) *Package {
	s.pkgs = append(s.pkgs, pk)
	return &s.pkgs[len(s.pkgs)-1]
}

// AddStatic stores a static package and returns it in the store.
func (s *Store) AddStatic(pk Package) *Package {
	n := s.statics
	s.pkgs = append(s.pkgs, Package{})
	copy(s.pkgs[n+1:], s.pkgs[n:])
	s.pkgs[n] = pk
	s.statics++
	return &s.pkgs[n]
}

// Static returns a non-empty static package in the store, or nil.
func (s *Store) Static() *Package {
	for i := range s.statics {
		if s.pkgs[i].Size > 0 {
			return &s.pkgs[i]
		}
	}
	return nil
}

// MobileAtFillerDistance returns the mobile package in the store of the
// smallest level satisfying the filler condition for hop distance d, or nil.
func (s *Store) MobileAtFillerDistance(p Params, d int64) *Package {
	var best *Package
	for i := int(s.statics); i < len(s.pkgs); i++ {
		pk := &s.pkgs[i]
		if p.IsFillerDistance(pk.Level, d) && (best == nil || pk.Level < best.Level) {
			best = pk
		}
	}
	return best
}

// TakeStaticPermit grants one permit from node-local state: it takes a
// permit from the first non-empty static package, removing the package when
// it drains. It reports ok = false, leaving the store untouched, when no
// static permit is available. This is the atomic core of the controllers'
// batched fast path: it either completes the whole local grant or changes
// nothing.
func (s *Store) TakeStaticPermit() (serial int64, ok bool) {
	static := s.Static()
	if static == nil {
		return 0, false
	}
	serial, empty, err := static.TakePermit()
	if err != nil {
		// Unreachable: Static() only returns non-empty static packages,
		// and TakePermit mutates nothing on error.
		return 0, false
	}
	if empty {
		// Cannot fail (the package came from this store); even if it did,
		// Static() skips empty packages, so the grant stays correct.
		_ = s.RemoveStatic(static)
	}
	return serial, true
}

// RemoveMobile removes the mobile package pk points at from the store; the
// last one takes its slot.
func (s *Store) RemoveMobile(pk *Package) error {
	i := s.index(pk, int(s.statics), len(s.pkgs))
	if i < 0 {
		return errNotInStore
	}
	last := len(s.pkgs) - 1
	s.pkgs[i] = s.pkgs[last]
	s.pkgs = s.pkgs[:last]
	return nil
}

// RemoveStatic removes the static package pk points at from the store; the
// last static takes its slot, and the mobiles move down one into the gap.
func (s *Store) RemoveStatic(pk *Package) error {
	i := s.index(pk, 0, int(s.statics))
	if i < 0 {
		return errNotInStore
	}
	s.statics--
	s.pkgs[i] = s.pkgs[s.statics]
	s.pkgs = append(s.pkgs[:s.statics], s.pkgs[s.statics+1:]...)
	return nil
}

// index returns the position in pkgs[from:to] that pk points at, or -1.
func (s *Store) index(pk *Package, from, to int) int {
	for i := from; i < to; i++ {
		if &s.pkgs[i] == pk {
			return i
		}
	}
	return -1
}

// TakeAll removes and returns a copy of every permit package, statics first
// (used when a node is deleted gracefully and its data moves to its parent
// in a message). The reject flag is returned as well.
func (s *Store) TakeAll() (packages []Package, hadReject bool) {
	out := append(make([]Package, 0, len(s.pkgs)), s.pkgs...)
	s.pkgs, s.statics = nil, 0
	return out, s.reject
}

// Absorb merges the given packages into the store (parent side of a
// graceful deletion), skipping empty ones: the statics at the end of the
// static section and the mobiles at the end of the store, each in the order
// given.
func (s *Store) Absorb(packages []Package, reject bool) {
	for _, pk := range packages {
		if pk.Size <= 0 {
			continue
		}
		if pk.Mobile {
			s.AddMobile(pk)
		} else {
			s.AddStatic(pk)
		}
	}
	if reject {
		s.reject = true
	}
}

// Mobiles returns the stored mobile packages (shared slice, good until the
// store next changes; callers must not mutate).
func (s *Store) Mobiles() []Package { return s.pkgs[s.statics:] }

// Statics returns the stored static packages (shared slice, good until the
// store next changes; callers must neither mutate nor append to it).
func (s *Store) Statics() []Package { return s.pkgs[:s.statics:s.statics] }

// PermitCount returns the total permits stored here (static + mobile).
func (s *Store) PermitCount() int64 {
	var n int64
	for _, pk := range s.pkgs {
		n += pk.Size
	}
	return n
}

// Empty reports whether the store holds neither permits nor a reject
// package.
func (s *Store) Empty() bool {
	return !s.reject && len(s.pkgs) == 0
}

// Clear drops every package including the reject flag; the store itself
// stays.
func (s *Store) Clear() {
	s.reject = false
	s.pkgs, s.statics = nil, 0
}

// MemoryBits estimates the whiteboard memory of this store in bits using
// the paper's encoding (Claim 4.8): identical mobile packages of one level
// are stored as a count (O(log U) bits per level), all static packages
// collapse to one total (O(log M) bits), plus the reject flag.
func (s *Store) MemoryBits(p Params) int {
	bitsLogU := ceilLog2(p.U) + 1
	bitsLogM := ceilLog2(p.M) + 1
	// One bit a level present: the whiteboards' level mask.
	var levels uint64
	for _, pk := range s.Mobiles() {
		levels |= 1 << min(uint(pk.Level), 63)
	}
	n := 1 // reject flag
	n += bits.OnesCount64(levels) * bitsLogU
	if s.statics > 0 {
		n += bitsLogM
	}
	return n
}
