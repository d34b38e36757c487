// Package stm is a lock-based software transactional memory built on the
// R/W RNLP — the application the paper presents as its motivation (Sec. 1):
// a transaction manager that coordinates concurrent read and write accesses
// to memory-resident shared objects *predictably*, with the worst-case
// blocking bounds of the underlying protocol (O(1) for read-only
// transactions, O(m) for writers) instead of the unbounded retries of
// non-blocking STMs.
//
// Transactions declare their read and write sets up front (the protocol's
// a-priori-knowledge requirement); all locks of a transaction are acquired
// atomically, so transactions never deadlock and never abort. Read-only
// transactions on disjoint or overlapping data run fully in parallel.
// Upgradeable transactions (Sec. 3.6) optimistically read and escalate to
// write access only when needed — without re-queueing from the back.
//
// Example:
//
//	sys := stm.NewSystem()
//	a := stm.NewVar(sys, 100)
//	b := stm.NewVar(sys, 200)
//	sys.DeclareTx(stm.Reads(a, b), nil)           // audit transaction shape
//	sys.DeclareTx(stm.Reads(), stm.Writes(a, b))  // transfer shape
//	s := sys.Build(stm.Options{Placeholders: true})
//
//	_ = s.Atomically(nil, stm.Writes(a, b), func(tx *stm.Tx) error {
//	    stm.Set(tx, a, stm.Get(tx, a)-10)
//	    stm.Set(tx, b, stm.Get(tx, b)+10)
//	    return nil
//	})
package stm

import (
	"context"
	"errors"
	"fmt"

	"github.com/rtsync/rwrnlp"
)

// Options configure the transaction manager.
type Options struct {
	// Placeholders enables the Sec. 3.4 optimization in the underlying
	// protocol (recommended).
	Placeholders bool
	// Spin selects busy-wait waiting in the underlying protocol.
	Spin bool
}

// System is the registration phase: variables and transaction shapes are
// declared here, then frozen into an STM with Build.
type System struct {
	built  bool
	nvars  int
	shapes []shape
}

type shape struct {
	read, write []rwrnlp.ResourceID
}

// NewSystem starts a registration phase.
func NewSystem() *System { return &System{} }

// VarBase is the untyped view of a transactional variable.
type VarBase interface {
	base() *varCore
}

type varCore struct {
	sys *System
	id  rwrnlp.ResourceID
	val any
}

func (v *varCore) base() *varCore { return v }

// Var is a typed transactional variable.
type Var[T any] struct {
	core varCore
}

func (v *Var[T]) base() *varCore { return &v.core }

// NewVar registers a new variable with an initial value. It panics after
// Build — the resource universe is fixed at build time, exactly like the
// protocol's resource set.
func NewVar[T any](sys *System, initial T) *Var[T] {
	if sys.built {
		panic("stm: NewVar after Build")
	}
	v := &Var[T]{core: varCore{sys: sys, id: rwrnlp.ResourceID(sys.nvars), val: initial}}
	sys.nvars++
	return v
}

// Reads is a convenience constructor for a read set.
func Reads(vs ...VarBase) []VarBase { return vs }

// Writes is a convenience constructor for a write set.
func Writes(vs ...VarBase) []VarBase { return vs }

// DeclareTx registers a potential transaction shape: a transaction reading
// the variables in read and writing those in write. Every multi-variable
// transaction the program will run must be covered by a declared shape
// (subsets of a shape are covered).
func (s *System) DeclareTx(read, write []VarBase) {
	if s.built {
		panic("stm: DeclareTx after Build")
	}
	s.shapes = append(s.shapes, shape{read: ids(read), write: ids(write)})
}

func ids(vs []VarBase) []rwrnlp.ResourceID {
	out := make([]rwrnlp.ResourceID, len(vs))
	for i, v := range vs {
		out[i] = v.base().id
	}
	return out
}

// STM is the frozen transaction manager.
type STM struct {
	sys  *System
	p    *rwrnlp.Protocol
	spec *rwrnlp.Spec
}

// Build freezes the system into a transaction manager.
func (s *System) Build(opt Options) *STM {
	if s.built {
		panic("stm: Build called twice")
	}
	s.built = true
	b := rwrnlp.NewSpecBuilder(s.nvars)
	for _, sh := range s.shapes {
		if err := b.DeclareRequest(sh.read, sh.write); err != nil {
			panic(fmt.Sprintf("stm: invalid declared shape: %v", err))
		}
	}
	spec := b.Build()
	var opts []rwrnlp.Option
	if opt.Placeholders {
		opts = append(opts, rwrnlp.WithPlaceholders())
	}
	if opt.Spin {
		opts = append(opts, rwrnlp.WithSpin())
	}
	return &STM{
		sys:  s,
		spec: spec,
		p:    rwrnlp.New(spec, opts...),
	}
}

// Errors.
var (
	ErrUndeclared  = errors.New("stm: transaction shape not covered by any declared shape")
	ErrAccess      = errors.New("stm: variable not in the transaction's declared access set")
	ErrWrongSystem = errors.New("stm: variable belongs to a different system")
	ErrNotUpgraded = errors.New("stm: write access before Upgrade")
)

// Tx is an executing transaction. It is valid only inside the function it
// was handed to.
type Tx struct {
	stm      *STM
	read     map[rwrnlp.ResourceID]bool
	write    map[rwrnlp.ResourceID]bool
	writable bool // false during the optimistic phase of an upgradeable tx
}

func (tx *Tx) canRead(id rwrnlp.ResourceID) bool  { return tx.read[id] || tx.write[id] }
func (tx *Tx) canWrite(id rwrnlp.ResourceID) bool { return tx.write[id] && tx.writable }

// Get reads a variable inside a transaction. It panics on undeclared access
// — an STM access-set violation is a program bug, not a runtime condition.
func Get[T any](tx *Tx, v *Var[T]) T {
	if v.core.sys != tx.stm.sys {
		panic(ErrWrongSystem)
	}
	if !tx.canRead(v.core.id) {
		panic(ErrAccess)
	}
	return v.core.val.(T)
}

// Set writes a variable inside a transaction. It panics on undeclared or
// read-only access.
func Set[T any](tx *Tx, v *Var[T], val T) {
	if v.core.sys != tx.stm.sys {
		panic(ErrWrongSystem)
	}
	if !tx.write[v.core.id] {
		panic(ErrAccess)
	}
	if !tx.writable {
		panic(ErrNotUpgraded)
	}
	v.core.val = val
}

// checkDeclared verifies the (read, write) shape is covered by the declared
// read-sharing relation: for every accessed variable a and every READ
// variable b of the same transaction, b must be read shared with a. This is
// precisely the condition the protocol's expansion machinery needs
// (Sec. 3.2) — issuing an uncovered shape would silently weaken the
// writer-FIFO guarantees, so it is rejected instead.
func (s *STM) checkDeclared(read, write []rwrnlp.ResourceID) error {
	for _, b := range read {
		for _, a := range append(append([]rwrnlp.ResourceID{}, read...), write...) {
			if !s.spec.ReadSet(a).Has(b) {
				return fmt.Errorf("%w: read of %d alongside %d", ErrUndeclared, b, a)
			}
		}
	}
	return nil
}

// Atomically runs fn as a transaction reading the variables in read and
// writing those in write. The transaction's locks are acquired atomically
// before fn runs and released afterwards; fn's error is returned verbatim.
// Read-only transactions (empty write set) run concurrently with each
// other; mixed transactions hold read locks on their read set and write
// locks on their write set (Sec. 3.5).
func (s *STM) Atomically(read, write []VarBase, fn func(tx *Tx) error) error {
	r, w := ids(read), ids(write)
	if err := s.checkDeclared(r, w); err != nil {
		return err
	}
	tok, err := s.p.Acquire(context.Background(), r, w)
	if err != nil {
		return err
	}
	defer s.p.Release(tok)
	tx := &Tx{stm: s, read: toSet(r), write: toSet(w), writable: true}
	return fn(tx)
}

// UpgradeableResult tells AtomicallyUpgradeable what to do after the
// optimistic read phase.
type UpgradeableResult int

const (
	// Commit: no write access needed; the transaction is done.
	Commit UpgradeableResult = iota
	// Upgrade: escalate to write access and run the write phase.
	Upgrade
)

// AtomicallyUpgradeable runs an upgradeable transaction over vars
// (Sec. 3.6): readFn executes with read access and decides whether write
// access is needed; if it returns Upgrade, writeFn runs with write access
// to the same variables. Because other writers may commit between the two
// phases, writeFn must re-read anything it depends on. If the underlying
// write half wins the acquisition race, readFn is skipped and writeFn runs
// directly.
func (s *STM) AtomicallyUpgradeable(vars []VarBase, readFn func(tx *Tx) (UpgradeableResult, error), writeFn func(tx *Tx) error) error {
	vs := ids(vars)
	if err := s.checkDeclared(vs, nil); err != nil {
		return err
	}
	u, err := s.p.AcquireUpgradeable(context.Background(), vs...)
	if err != nil {
		return err
	}
	set := toSet(vs)
	if u.Reading() {
		tx := &Tx{stm: s, read: set, write: set, writable: false}
		res, err := readFn(tx)
		if err != nil || res == Commit {
			if rerr := u.ReleaseRead(); rerr != nil && err == nil {
				err = rerr
			}
			return err
		}
		if err := u.Upgrade(context.Background()); err != nil {
			return err
		}
	}
	defer u.Release()
	tx := &Tx{stm: s, read: set, write: set, writable: true}
	return writeFn(tx)
}

func toSet(ids []rwrnlp.ResourceID) map[rwrnlp.ResourceID]bool {
	m := make(map[rwrnlp.ResourceID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// Peek reads a variable outside any transaction, unsynchronized. For tests
// and initialization only.
func Peek[T any](v *Var[T]) T { return v.core.val.(T) }
