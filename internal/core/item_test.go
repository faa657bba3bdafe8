package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDatabaseValidation(t *testing.T) {
	tests := []struct {
		name    string
		items   []Item
		wantErr error
	}{
		{"empty", nil, ErrEmptyDatabase},
		{"zero freq", []Item{{ID: 1, Freq: 0, Size: 1}}, ErrBadFreq},
		{"negative freq", []Item{{ID: 1, Freq: -0.1, Size: 1}}, ErrBadFreq},
		{"NaN freq", []Item{{ID: 1, Freq: math.NaN(), Size: 1}}, ErrBadFreq},
		{"inf freq", []Item{{ID: 1, Freq: math.Inf(1), Size: 1}}, ErrBadFreq},
		{"zero size", []Item{{ID: 1, Freq: 0.5, Size: 0}}, ErrBadSize},
		{"negative size", []Item{{ID: 1, Freq: 0.5, Size: -3}}, ErrBadSize},
		{"inf size", []Item{{ID: 1, Freq: 0.5, Size: math.Inf(1)}}, ErrBadSize},
		{"duplicate id", []Item{{ID: 7, Freq: 0.5, Size: 1}, {ID: 7, Freq: 0.5, Size: 2}}, ErrDuplicateID},
		{"valid", []Item{{ID: 1, Freq: 0.5, Size: 1}, {ID: 2, Freq: 0.5, Size: 2}}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewDatabase(tt.items)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("NewDatabase error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDatabaseCopiesInput(t *testing.T) {
	items := []Item{{ID: 1, Freq: 0.5, Size: 1}, {ID: 2, Freq: 0.5, Size: 2}}
	db := MustNewDatabase(items)
	items[0].Freq = 99 // mutate the caller's slice
	if got := db.Item(0).Freq; got != 0.5 {
		t.Fatalf("database aliased caller slice: item 0 freq = %v", got)
	}
	out := db.Items()
	out[1].Size = -1 // mutate the returned copy
	if got := db.Item(1).Size; got != 2 {
		t.Fatalf("Items() aliased internal slice: item 1 size = %v", got)
	}
}

func TestDatabaseAggregates(t *testing.T) {
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 0.25, Size: 4},
		{ID: 2, Freq: 0.75, Size: 8},
	})
	if got := db.TotalFreq(); math.Abs(got-1) > 1e-12 {
		t.Errorf("TotalFreq = %v, want 1", got)
	}
	if got := db.TotalSize(); got != 12 {
		t.Errorf("TotalSize = %v, want 12", got)
	}
	if got := db.DownloadMass(); math.Abs(got-(0.25*4+0.75*8)) > 1e-12 {
		t.Errorf("DownloadMass = %v, want 7", got)
	}
	if got := db.MeanSize(); got != 6 {
		t.Errorf("MeanSize = %v, want 6", got)
	}
}

func TestNormalized(t *testing.T) {
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 2, Size: 4},
		{ID: 2, Freq: 6, Size: 8},
	})
	norm := db.Normalized()
	if math.Abs(norm.TotalFreq()-1) > 1e-12 {
		t.Fatalf("normalized TotalFreq = %v, want 1", norm.TotalFreq())
	}
	if got, want := norm.Item(0).Freq, 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("item 0 freq = %v, want %v", got, want)
	}
	if db.Item(0).Freq != 2 {
		t.Error("Normalized mutated the receiver")
	}
	// Already-normalized databases are returned as-is.
	if again := norm.Normalized(); again != norm {
		t.Error("Normalized of a normalized database allocated a copy")
	}
}

func TestByBenefitRatioOrder(t *testing.T) {
	db := PaperExampleDatabase()
	order := db.ByBenefitRatio()
	if len(order) != db.Len() {
		t.Fatalf("order length %d, want %d", len(order), db.Len())
	}
	for i := 1; i < len(order); i++ {
		prev := db.Item(order[i-1]).BenefitRatio()
		cur := db.Item(order[i]).BenefitRatio()
		if prev < cur {
			t.Fatalf("order not descending at %d: %v < %v", i, prev, cur)
		}
	}
}

func TestByFreqOrder(t *testing.T) {
	db := PaperExampleDatabase()
	order := db.ByFreq()
	for i := 1; i < len(order); i++ {
		if db.Item(order[i-1]).Freq < db.Item(order[i]).Freq {
			t.Fatalf("freq order not descending at %d", i)
		}
	}
	// The most popular paper item is d1.
	if got := db.Item(order[0]).ID; got != 1 {
		t.Fatalf("most frequent item = d%d, want d1", got)
	}
}

// TestSortOrdersMatchStableReference pins ByBenefitRatio and ByFreq to
// the stable sort they replace, on databases built with many equal
// benefit ratios and frequencies so the position tie-break decides
// most of the order.
func TestSortOrdersMatchStableReference(t *testing.T) {
	stableDesc := func(db *Database, key func(Item) float64) []int {
		idx := make([]int, db.Len())
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return key(db.Item(idx[a])) > key(db.Item(idx[b]))
		})
		return idx
	}
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + rng.Intn(300)
		items := make([]Item, n)
		for i := range items {
			// Few distinct values: scaling f and z together repeats the
			// ratio f/z exactly, and frequencies repeat as well.
			f := float64(1 + rng.Intn(4))
			scale := float64(int(1) << rng.Intn(4))
			items[i] = Item{ID: i, Freq: f * scale, Size: float64(1+rng.Intn(3)) * scale}
		}
		db := MustNewDatabase(items)
		if got, want := db.ByBenefitRatio(), stableDesc(db, Item.BenefitRatio); !slices.Equal(got, want) {
			t.Fatalf("seed %d: ByBenefitRatio %v, stable reference %v", seed, got, want)
		}
		freq := func(it Item) float64 { return it.Freq }
		if got, want := db.ByFreq(), stableDesc(db, freq); !slices.Equal(got, want) {
			t.Fatalf("seed %d: ByFreq %v, stable reference %v", seed, got, want)
		}
	}
}

func TestIndexByID(t *testing.T) {
	db := PaperExampleDatabase()
	byID := db.IndexByID()
	if len(byID) != db.Len() {
		t.Fatalf("IndexByID size %d, want %d", len(byID), db.Len())
	}
	for pos := 0; pos < db.Len(); pos++ {
		if got := byID[db.Item(pos).ID]; got != pos {
			t.Fatalf("IndexByID[%d] = %d, want %d", db.Item(pos).ID, got, pos)
		}
	}
}

// Property: sorting permutations are true permutations of 0..N-1.
func TestSortOrdersArePermutations(t *testing.T) {
	check := func(seed uint16, n uint8) bool {
		db := randomDatabase(t, int(seed), int(n)%40+1)
		for _, order := range [][]int{db.ByBenefitRatio(), db.ByFreq()} {
			seen := make([]bool, db.Len())
			for _, pos := range order {
				if pos < 0 || pos >= db.Len() || seen[pos] {
					return false
				}
				seen[pos] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
