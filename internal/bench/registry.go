package bench

import (
	"fmt"
	"io"
)

// Result is one figure's computed result; Write renders it as text.
type Result interface {
	Write(w io.Writer)
}

// Figure is one regenerable figure of the paper: Run executes its
// experiment at the committed config and seed.
type Figure struct {
	Name, Title string
	Run         func() (Result, error)
}

// Write renders r under the figure's title, followed by a blank line —
// the exact text `cloudviews figures <name>` prints.
func (f Figure) Write(w io.Writer, r Result) {
	fmt.Fprintf(w, "==== %s ====\n", f.Title)
	r.Write(w)
	fmt.Fprintln(w)
}

func figure[R Result](name, title string, run func() (R, error)) Figure {
	return Figure{Name: name, Title: title, Run: func() (Result, error) {
		r, err := run()
		return r, err
	}}
}

// Figures lists every figure in paper order: the one list the
// `cloudviews figures` subcommand runs and the golden tests check.
var Figures = []Figure{
	figure("1", "Figure 1", Figure1),
	figure("2", "Figure 2", Figure2),
	figure("3", "Figure 3", Figure3),
	figure("4", "Figure 4", Figure4),
	figure("5", "Figure 5", Figure5),
	figure("11-12", "Figures 11-12", func() (*ProdResult, error) { return RunProduction(DefaultProdConfig()) }),
	figure("13", "Figure 13", func() (*TPCDSResult, error) { return RunTPCDS(DefaultTPCDSConfig()) }),
	figure("overheads", "§7.3 overheads", func() (*OverheadResult, error) { return RunOverheads(7) }),
	figure("ablations", "Ablations", RunAblations),
}

// Lookup returns the figure with the given name.
func Lookup(name string) (Figure, bool) {
	for _, f := range Figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}
