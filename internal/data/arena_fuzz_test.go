package data

import (
	"bytes"
	"testing"
)

// FuzzRowArena drives an arena with a random first-block hint through a
// random sequence of NewRow, NewRows, Concat and Extend calls over widths
// 0–40, and checks that every row has len == cap == its width, that no two
// live rows share memory (each row is stamped with a per-row marker, and
// every marker is verified at the end), and that values survive the later
// carves and block growth that follow them.
func FuzzRowArena(f *testing.F) {
	f.Add(0, false, []byte{0, 3, 0, 1, 5, 4, 2, 0, 1, 3, 0, 0})
	f.Add(16, false, bytes.Repeat([]byte{1, 40, 7}, 30))
	f.Add(3, false, bytes.Repeat([]byte{0, 1, 0, 2, 0, 1, 3, 2, 0}, 40))
	f.Add(511, true, bytes.Repeat([]byte{1, 17, 8, 2, 3, 5}, 20))
	f.Fuzz(func(t *testing.T, hint int, scratch bool, ops []byte) {
		var a *RowArena
		if scratch {
			a = NewScratchRowArena()
			defer a.Release()
		} else {
			a = NewRowArenaSized(hint % (1 << 14))
		}
		var live []Row
		stamp := func(r Row, what string, want Row) {
			if len(r) != len(want) || cap(r) != len(want) {
				t.Fatalf("%s row: len %d cap %d, want %d", what, len(r), cap(r), len(want))
			}
			for j := range r {
				if r[j] != want[j] {
					t.Fatalf("%s row col %d = %v, want %v", what, j, r[j], want[j])
				}
			}
			id := int64(len(live))
			for j := range r {
				r[j] = Int(id<<8 | int64(j))
			}
			live = append(live, r)
		}
		pick := func(b byte, maxWidth int) Row {
			if len(live) == 0 {
				return nil
			}
			r := live[int(b)%len(live)]
			return r[:min(len(r), maxWidth)]
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			x, y := ops[1], ops[2]
			w := int(x) % 41
			switch ops[0] % 4 {
			case 0:
				stamp(a.NewRow(w), "NewRow", make(Row, w))
			case 1:
				out := make([]Row, int(y)%9)
				a.NewRows(out, w)
				for _, r := range out {
					stamp(r, "NewRows", make(Row, w))
				}
			case 2:
				l, r := pick(x, 20), pick(y, 20)
				want := append(append(Row{}, l...), r...)
				stamp(a.Concat(l, r), "Concat", want)
			case 3:
				r := pick(x, 39)
				want := append(append(Row{}, r...), String_("extra"))
				stamp(a.Extend(r, String_("extra")), "Extend", want)
			}
		}
		for id, r := range live {
			for j := range r {
				if want := Int(int64(id)<<8 | int64(j)); r[j] != want {
					t.Fatalf("row %d col %d = %v, want %v: rows share memory", id, j, r[j], want)
				}
			}
		}
	})
}
