// Package ctor seeds discarded constructor errors — the shapes that would
// silently reintroduce the config-validation panics PR 2 converted to
// errors.
package ctor

import "errors"

type Mon struct{ ways int }

func New(ways int) (*Mon, error) {
	if ways <= 0 {
		return nil, errors.New("ctor: ways must be positive")
	}
	return &Mon{ways: ways}, nil
}

func NewTable(n int) (*Mon, error) { return New(n) }

// newScratch is not a constructor by the New<Upper> convention.
func newScratch() *Mon { return &Mon{} }

// Newish has no error result, so discarding it is not this analyzer's
// business.
func Newish() *Mon { return &Mon{} }

// policy holds a constructed component in a field, as the real policies
// hold their SyncMon and CP.
type policy struct{ mon *Mon }

// build is the shape of the origin bug re-introduced in a policy
// constructor: a plain assignment into a field with the error blanked.
func (p *policy) build(ways int) {
	p.mon, _ = New(ways) // want `error from New discarded with blank identifier`
}

func use() *Mon {
	New(4)         // want `result of New dropped`
	m, _ := New(4) // want `error from New discarded with blank identifier`
	_ = m
	go New(1)    // want `result of New dropped in go statement`
	defer New(1) // want `result of New dropped in defer statement`

	t, err := NewTable(2) // handled: fine
	if err != nil {
		return nil
	}
	_ = newScratch()
	_ = Newish()
	return t
}
