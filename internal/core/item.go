package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Item is a single broadcast data item. Freq is the item's access
// probability mass (the paper's f) and Size its length in size units
// (the paper's z). ID identifies the item within its Database and is
// preserved by every transformation in this module.
type Item struct {
	ID   int     `json:"id"`
	Freq float64 `json:"freq"`
	Size float64 `json:"size"`
}

// BenefitRatio returns the paper's br value f/z: access probability per
// size unit. Items with a high benefit ratio belong on short-cycle
// channels.
func (it Item) BenefitRatio() float64 { return it.Freq / it.Size }

// Database is an immutable collection of broadcast items. Construct one
// with NewDatabase; the zero value is an empty database.
type Database struct {
	items []Item

	totalFreq    float64
	totalSize    float64
	downloadMass float64 // Σ f_j · z_j, the allocation-independent term
}

// Validation errors returned by NewDatabase.
var (
	ErrEmptyDatabase = errors.New("core: database has no items")
	ErrBadFreq       = errors.New("core: item frequency must be positive and finite")
	ErrBadSize       = errors.New("core: item size must be positive and finite")
	ErrDuplicateID   = errors.New("core: duplicate item id")
)

// NewDatabase builds a database from items. It copies the slice, so the
// caller may reuse it. Frequencies and sizes must be positive and
// finite and IDs unique; frequencies need not sum to one (see
// Normalized).
//
//diverselint:coldpath one-time validated construction; the database is immutable afterwards
func NewDatabase(items []Item) (*Database, error) {
	if len(items) == 0 {
		return nil, ErrEmptyDatabase
	}
	db := &Database{items: make([]Item, len(items))}
	copy(db.items, items)
	seen := make(map[int]struct{}, len(items))
	for _, it := range db.items {
		if _, dup := seen[it.ID]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateID, it.ID)
		}
		seen[it.ID] = struct{}{}
		if !(it.Freq > 0) || math.IsInf(it.Freq, 0) {
			return nil, fmt.Errorf("%w: item %d has freq %v", ErrBadFreq, it.ID, it.Freq)
		}
		if !(it.Size > 0) || math.IsInf(it.Size, 0) {
			return nil, fmt.Errorf("%w: item %d has size %v", ErrBadSize, it.ID, it.Size)
		}
		db.totalFreq += it.Freq
		db.totalSize += it.Size
		db.downloadMass += it.Freq * it.Size
	}
	return db, nil
}

// MustNewDatabase is NewDatabase but panics on error. It is intended
// for tests and package examples with hard-coded inputs.
func MustNewDatabase(items []Item) *Database {
	db, err := NewDatabase(items)
	if err != nil {
		panic(err)
	}
	return db
}

// Len reports the number of items N.
func (db *Database) Len() int { return len(db.items) }

// Item returns the item at position i (0 ≤ i < Len).
func (db *Database) Item(i int) Item { return db.items[i] }

// Items returns a copy of all items in database order.
func (db *Database) Items() []Item {
	out := make([]Item, len(db.items))
	copy(out, db.items)
	return out
}

// TotalFreq is the sum of all access frequencies. For a well-formed
// broadcast profile it is 1.
func (db *Database) TotalFreq() float64 { return db.totalFreq }

// TotalSize is the aggregate size of the database Σ z_j.
func (db *Database) TotalSize() float64 { return db.totalSize }

// DownloadMass is Σ f_j·z_j, the allocation-independent component of
// the waiting time (the expected download length of one request).
func (db *Database) DownloadMass() float64 { return db.downloadMass }

// Normalized returns a database with the same items whose frequencies
// are rescaled to sum to one. If they already do, the receiver is
// returned unchanged.
func (db *Database) Normalized() *Database {
	if math.Abs(db.totalFreq-1) < 1e-12 {
		return db
	}
	items := db.Items()
	for i := range items {
		items[i].Freq /= db.totalFreq
	}
	out, err := NewDatabase(items)
	if err != nil {
		// Unreachable: scaling positive finite values by a positive
		// constant preserves validity.
		panic(err)
	}
	return out
}

// ByBenefitRatio returns the item positions sorted by benefit ratio in
// descending order, the order DRP consumes. Ties break by ascending
// position so the order is deterministic.
func (db *Database) ByBenefitRatio() []int {
	return db.positionsByDesc(Item.BenefitRatio)
}

// ByFreq returns the item positions sorted by access frequency in
// descending order, the order conventional (equal-size) allocators such
// as VF^K consume. Ties break by ascending position.
func (db *Database) ByFreq() []int {
	return db.positionsByDesc(func(it Item) float64 { return it.Freq })
}

// posKey pairs an item position with its precomputed sort key.
type posKey struct {
	key float64
	pos int
}

// positionsByDesc returns the item positions sorted by key descending,
// equal keys by ascending position: the order a stable sort under
// "key(a) > key(b)" yields. Each key is computed once up front instead
// of twice per comparison, and the explicit position tie-break lets an
// unstable sort produce the stable order. Keys of validated items
// (positive finite frequency and size) are never NaN, so the order is
// total.
func (db *Database) positionsByDesc(key func(Item) float64) []int {
	keys := make([]posKey, len(db.items))
	for i, it := range db.items {
		keys[i] = posKey{key: key(it), pos: i}
	}
	slices.SortFunc(keys, func(a, b posKey) int {
		switch {
		case a.key > b.key:
			return -1
		case a.key < b.key:
			return 1
		}
		return cmp.Compare(a.pos, b.pos)
	})
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = k.pos
	}
	return idx
}

// MeanSize is the average item size.
func (db *Database) MeanSize() float64 {
	return db.totalSize / float64(len(db.items))
}

// Frequencies returns every item's access frequency in database
// order — the profile an allocation over this database was solved
// for, in the shape estimators and drift scorers consume.
func (db *Database) Frequencies() []float64 {
	f := make([]float64, len(db.items))
	for i, it := range db.items {
		f[i] = it.Freq
	}
	return f
}

// IndexByID returns a map from item ID to database position.
//
//diverselint:coldpath O(N) lookup-table build for clients and tests, not per-access
func (db *Database) IndexByID() map[int]int {
	m := make(map[int]int, len(db.items))
	for i, it := range db.items {
		m[it.ID] = i
	}
	return m
}
