package cluster

import "testing"

// FuzzProfileOps drives the profile with an op sequence decoded from
// fuzz bytes and checks invariants after every operation, cross-checking
// EarliestFit and FreeAt against a brute-force reference and FitsAt
// against EarliestFit.
func FuzzProfileOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 16
		const horizon = 256
		p := New(capacity, 0)
		ref := newNaive(capacity, 0, horizon)
		type placed struct {
			pl    Placement
			t     Time
			nodes int
			d     Duration
		}
		var stack []placed
		for i := 0; i+3 < len(data); i += 4 {
			op := data[i] % 3
			nodes := int(data[i+1])%capacity + 1
			d := Duration(data[i+2])%60 + 1
			after := Time(data[i+3]) % (horizon / 2)
			switch op {
			case 0: // place at earliest fit
				got := p.EarliestFit(after, nodes, d)
				want := ref.earliestFit(after, nodes, d)
				if got != want {
					t.Fatalf("EarliestFit(%d, %d, %d) = %d, want %d", after, nodes, d, got, want)
				}
				if fits := p.FitsAt(after, nodes, d); fits != (want == after) {
					t.Fatalf("FitsAt(%d, %d, %d) = %v, EarliestFit answers %d", after, nodes, d, fits, want)
				}
				if int(got)+int(d) >= horizon {
					continue
				}
				stack = append(stack, placed{pl: p.Place(got, nodes, d), t: got, nodes: nodes, d: d})
				ref.place(got, nodes, d)
			case 1: // undo last
				if len(stack) == 0 {
					continue
				}
				last := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				p.Undo(last.pl)
				ref.unplace(last.t, last.nodes, last.d)
			case 2: // check free capacity
				if got, want := p.FreeAt(after), ref.free[after]; got != want {
					t.Fatalf("FreeAt(%d) = %d, want %d", after, got, want)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
