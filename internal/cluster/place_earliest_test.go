package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// placeEarliestChecked runs the one-pass PlaceEarliest on p and holds it
// to its definition on clones taken beforehand: the start is the
// per-second reference's (not EarliestFit's, which shares the scan), the
// steps are the ones Place at that start leaves, and Undo gives back the
// steps it began with. It returns the start and the placement, applied
// again.
func placeEarliestChecked(t *testing.T, p *Profile, after Time, n int, d Duration) (Time, Placement) {
	t.Helper()
	before := p.Clone()
	want := naiveOf(p).earliestFit(max(after, p.Origin()), n, d)
	ref := p.Clone()
	ref.Place(want, n, d)

	got, pl := p.PlaceEarliest(after, n, d)
	if got != want {
		t.Fatalf("PlaceEarliest(after=%d, n=%d, d=%d) started at %d, the reference says %d", after, n, d, got, want)
	}
	if !slices.Equal(p.steps, ref.steps) {
		t.Fatalf("PlaceEarliest(after=%d, n=%d, d=%d) left %v, Place at the reference's start leaves %v", after, n, d, p.steps, ref.steps)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after PlaceEarliest(after=%d, n=%d, d=%d): %v", after, n, d, err)
	}
	p.Undo(pl)
	if !slices.Equal(p.steps, before.steps) {
		t.Fatalf("Undo of PlaceEarliest(after=%d, n=%d, d=%d) left %v, began with %v", after, n, d, p.steps, before.steps)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after Undo: %v", err)
	}
	return p.PlaceEarliest(after, n, d)
}

// TestPlaceEarliestMatchesFitThenPlace drives random LIFO place/undo
// sequences through the one-pass placement, with queries from the
// origin (the search's case), from inside a step and from past every
// reservation, and requires that every boundary shape was exercised.
func TestPlaceEarliestMatchesFitThenPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var atOrigin, pastOrigin, splitLo, noSplitLo, splitHi, noSplitHi int
	for trial := 0; trial < 300; trial++ {
		capacity := 1 + rng.Intn(24)
		origin := Time(rng.Intn(50))
		p := New(capacity, origin)
		var stack []Placement
		for step := 0; step < 50; step++ {
			if len(stack) > 0 && rng.Intn(4) == 0 {
				p.Undo(stack[len(stack)-1])
				stack = stack[:len(stack)-1]
				continue
			}
			after := origin
			switch rng.Intn(3) {
			case 0: // before or at the origin: clamped
				after -= Time(rng.Intn(3))
			case 1:
				after += Time(rng.Intn(200))
			}
			// Durations from a small set make ends land on existing
			// boundaries often.
			d := Duration(10 * (1 + rng.Intn(6)))
			if rng.Intn(3) == 0 {
				d = Duration(1 + rng.Intn(90))
			}
			_, pl := placeEarliestChecked(t, p, after, 1+rng.Intn(capacity), d)
			stack = append(stack, pl)
			if after <= origin {
				atOrigin++
			} else {
				pastOrigin++
			}
			if pl.ins&insLo != 0 {
				splitLo++
			} else {
				noSplitLo++
			}
			if pl.ins&insHi != 0 {
				splitHi++
			} else {
				noSplitHi++
			}
		}
	}
	for name, c := range map[string]int{
		"after at origin": atOrigin, "after past origin": pastOrigin,
		"start inside a step": splitLo, "start on a boundary": noSplitLo,
		"end inside a step": splitHi, "end on a boundary": noSplitHi,
	} {
		if c == 0 {
			t.Errorf("case never exercised: %s", name)
		}
	}
}

// TestPlaceEarliestBoundaryShapes pins the two shapes the random test
// only counts: an end that lands on an existing boundary inserts no
// step, and a start inside a step splits it.
func TestPlaceEarliestBoundaryShapes(t *testing.T) {
	p := New(8, 0)
	p.Place(0, 8, 10)  // steps at 0 (full) and 10
	p.Place(10, 2, 20) // boundary at 30

	start, pl := placeEarliestChecked(t, p, 0, 6, 20)
	if start != 10 || pl.ins != 0 {
		t.Fatalf("fit [10,30) on existing boundaries: start %d ins %b", start, pl.ins)
	}
	p.Undo(pl)

	start, pl = placeEarliestChecked(t, p, 15, 6, 5)
	if start != 15 || pl.ins != insLo|insHi {
		t.Fatalf("fit [15,20) inside a step: start %d ins %b", start, pl.ins)
	}
}

// TestPlaceEarliestComb pins the shape the scan's reset is for: holes
// that are wide enough but shorter than the job, so a fit from the
// origin or the first tooth lands past five rejected holes. Steps: teeth
// with 2 of 8 nodes free at [20k, 20k+10) for k < 6 and at [130, 140),
// full capacity between them.
func TestPlaceEarliestComb(t *testing.T) {
	p := New(8, 0)
	for k := 0; k < 6; k++ {
		p.Place(Time(20*k), 6, 10)
	}
	p.Place(130, 6, 10)

	for _, c := range []struct {
		name  string
		after Time
		d     Duration
		ins   uint8
	}{
		{"from the origin, ending on a boundary", 0, 20, 0},
		{"from inside a tooth, ending inside a step", 5, 15, insHi},
		{"from inside a hole, ending inside a step", 35, 15, insHi},
	} {
		start, pl := placeEarliestChecked(t, p, c.after, 4, c.d)
		if start != 110 || pl.lo != 11 || pl.ins != c.ins {
			t.Errorf("%s: start %d lo %d ins %b, want 110, 11, %b", c.name, start, pl.lo, pl.ins, c.ins)
		}
		p.Undo(pl)
	}
	for _, after := range []Time{0, 5, 15, 100, 135, 200} {
		for _, n := range []int{1, 4, 8} {
			if d0, d1 := p.EarliestFit(after, n, 0), p.EarliestFit(after, n, 1); d0 != d1 {
				t.Errorf("EarliestFit(%d, %d, 0) = %d, EarliestFit(%d, %d, 1) = %d", after, n, d0, after, n, d1)
			}
		}
	}
}

// TestFitsAtIsFitNow holds FitsAt to its definition, EarliestFit(t, n,
// d) == t, and to the per-second reference, on random profiles with
// queries at the origin, inside steps, on boundaries and past every
// reservation, for d == 0 and for intervals that span many steps, and
// requires both answers to have been given often.
func TestFitsAtIsFitNow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var fits, misses int
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(24)
		origin := Time(rng.Intn(50))
		p := New(capacity, origin)
		for k := rng.Intn(12); k > 0; k-- {
			p.PlaceEarliest(origin+Time(rng.Intn(150)), 1+rng.Intn(capacity), Duration(1+rng.Intn(60)))
		}
		ref := naiveOf(p)
		for q := 0; q < 50; q++ {
			at := origin + Time(rng.Intn(250))
			if q%5 == 0 {
				at = origin
			}
			n, d := 1+rng.Intn(capacity), Duration(rng.Intn(80))
			got := p.FitsAt(at, n, d)
			if want := p.EarliestFit(at, n, d) == at; got != want {
				t.Fatalf("FitsAt(%d, %d, %d) = %v, but EarliestFit answers %d", at, n, d, got, p.EarliestFit(at, n, d))
			}
			if want := ref.earliestFit(at, n, max(d, 1)) == at; got != want {
				t.Fatalf("FitsAt(%d, %d, %d) = %v, the per-second reference says %v", at, n, d, got, want)
			}
			if got {
				fits++
			} else {
				misses++
			}
		}
	}
	if fits < 1000 || misses < 1000 {
		t.Errorf("%d fits and %d misses: both answers must be exercised", fits, misses)
	}
}

// sized is a job to place: nodes for a duration.
type sized struct {
	n int
	d Duration
}

// saveRestoreChecked brackets the given placements, each at its earliest
// fit from the origin and each checked, with Save and Restore and
// requires the steps a clone held beforehand back — whatever the
// placements inserted.
func saveRestoreChecked(t *testing.T, p *Profile, jobs []sized) {
	t.Helper()
	before := p.Clone()
	p.Save()
	for _, j := range jobs {
		placeEarliestChecked(t, p, p.Origin(), j.n, j.d)
	}
	p.Restore()
	if !slices.Equal(p.steps, before.steps) {
		t.Fatalf("Restore after %d placements left %v, Save saw %v", len(jobs), p.steps, before.steps)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("after Restore: %v", err)
	}
}

// TestSaveRestore interleaves Save → k placements → Restore with LIFO
// place/undo sequences: Restore gives back the saved steps whether the
// run in between was empty, short or longer than anything saved before
// (the storage is reused), and the undo records taken before the Save
// still unwind to the empty machine afterwards.
func TestSaveRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(24)
		p := New(capacity, Time(rng.Intn(50)))
		empty := p.Clone()
		var stack []Placement
		for step := 0; step < 30; step++ {
			switch rng.Intn(4) {
			case 0:
				if len(stack) > 0 {
					p.Undo(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
				}
			case 1:
				jobs := make([]sized, rng.Intn(12))
				for i := range jobs {
					jobs[i] = sized{1 + rng.Intn(capacity), Duration(1 + rng.Intn(90))}
				}
				saveRestoreChecked(t, p, jobs)
			default:
				_, pl := p.PlaceEarliest(p.Origin(), 1+rng.Intn(capacity), Duration(1+rng.Intn(90)))
				stack = append(stack, pl)
			}
		}
		for len(stack) > 0 {
			p.Undo(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		if !slices.Equal(p.steps, empty.steps) {
			t.Fatalf("trial %d: unwinding after Save/Restore left %v", trial, p.steps)
		}
	}
}

func TestPlaceEarliestArgValidation(t *testing.T) {
	for name, call := range map[string]func(p *Profile){
		"zero nodes":        func(p *Profile) { p.PlaceEarliest(0, 0, 5) },
		"over capacity":     func(p *Profile) { p.PlaceEarliest(0, 9, 5) },
		"zero duration":     func(p *Profile) { p.PlaceEarliest(0, 1, 0) },
		"negative duration": func(p *Profile) { p.PlaceEarliest(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call(New(8, 0))
		}()
	}
}

// FuzzPlaceEarliest decodes a place/undo sequence from the fuzz bytes
// and holds every placement to the per-second reference + Place, and
// every bracketed run of placements to Save + Restore.
func FuzzPlaceEarliest(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 15, 9, 0, 0, 15, 9, 0, 1, 3, 9, 5})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 0})
	f.Add([]byte{0, 3, 20, 0, 6, 9, 30, 5, 3, 0, 0, 0, 6, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 16
		p := New(capacity, 100)
		var stack []Placement
		for i := 0; i+3 < len(data); i += 4 {
			if data[i]%4 == 3 {
				if len(stack) > 0 {
					p.Undo(stack[len(stack)-1])
					stack = stack[:len(stack)-1]
				}
				continue
			}
			nodes := int(data[i+1])%capacity + 1
			d := Duration(data[i+2])%60 + 1
			if data[i]%8 == 6 {
				jobs := make([]sized, data[i+3]%6)
				for k := range jobs {
					jobs[k] = sized{(nodes+5*k)%capacity + 1, d + Duration(13*k)}
				}
				saveRestoreChecked(t, p, jobs)
				continue
			}
			// Half the queries start from the origin (or before it).
			after := Time(98)
			if data[i]%2 == 1 {
				after += Time(data[i+3])
			}
			_, pl := placeEarliestChecked(t, p, after, nodes, d)
			stack = append(stack, pl)
		}
	})
}

// registerShape reports why the compiler would not keep a value of type
// t in registers, or "" if it would. The rule is CanSSA's in
// cmd/compile/internal/ssa (go1.24): at most four words, at most four
// fields per struct (MaxStruct), no array longer than one element, and
// the same for every field. A type that breaks it is built on the stack
// and copied, and a 16-byte reload of two 8-byte stores stalls the CPU
// (no store-to-load forwarding) on every search node (DESIGN §10).
func registerShape(t reflect.Type) string {
	if t.Size() > 4*unsafe.Sizeof(uintptr(0)) {
		return fmt.Sprintf("%s is %d bytes, more than four words", t, t.Size())
	}
	switch t.Kind() {
	case reflect.Array:
		if t.Len() > 1 {
			return fmt.Sprintf("%s is an array of %d elements", t, t.Len())
		}
		return registerShape(t.Elem())
	case reflect.Struct:
		if t.NumField() > 4 {
			return fmt.Sprintf("%s has %d fields, more than four", t, t.NumField())
		}
		for i := 0; i < t.NumField(); i++ {
			if why := registerShape(t.Field(i).Type); why != "" {
				return why
			}
		}
	}
	return ""
}

// TestPlacementFitsInRegisters keeps the undo record every search node
// returns from PlaceEarliest in registers.
func TestPlacementFitsInRegisters(t *testing.T) {
	typ := reflect.TypeOf(Placement{})
	if typ.Kind() != reflect.Struct {
		t.Fatalf("%s is of kind %s, want a struct", typ, typ.Kind())
	}
	if why := registerShape(typ); why != "" {
		t.Error(why)
	}
}
