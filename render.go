package repro

// The output registry: every table, figure and section report of the
// paper's evaluation, in the order cmd/figures prints them. cmd/figures,
// the golden, cache and resume tests and the benchmark all render
// through it, so "byte-identical figures" means the same bytes
// everywhere.

import "fmt"

// Renderer is one named output of the evaluation. A closed-form output
// ignores its *Lab.
type Renderer struct {
	Name string
	Fn   func(*Lab) (string, error)
}

// Renderers returns the registry of the paper's 18 outputs in the order
// cmd/figures prints them. Names are "tableN", "figureN" and "sectionS"
// for Table N, Figure N and the Section S report.
func Renderers() []Renderer {
	return []Renderer{
		{"table1", closedForm(Table1)},
		{"figure2", closedForm(Figure2)},
		{"table2", (*Lab).Table2},
		{"figure3", (*Lab).Figure3},
		{"table3", closedForm(Table3)},
		{"table4", (*Lab).Table4},
		{"table5", closedForm(Table5)},
		{"figure6", (*Lab).Figure6},
		{"figure7", (*Lab).Figure7},
		{"figure9", (*Lab).Figure9},
		{"figure10", (*Lab).Figure10},
		{"figure11", (*Lab).Figure11},
		{"figure12", closedForm(Figure12)},
		{"table6", (*Lab).Table6},
		{"table7", closedForm(func() string { return Table7() + "\n" + StorageReport() })},
		{"section5f", (*Lab).SensitivityVF},
		{"section5h", (*Lab).PowerReport},
		{"section6c", func(l *Lab) (string, error) { return l.CoRunReport("gcc") }},
	}
}

// closedForm adapts a closed-form output to the registry.
func closedForm(f func() string) func(*Lab) (string, error) {
	return func(*Lab) (string, error) { return f(), nil }
}

// RendererByName resolves one registry entry.
func RendererByName(name string) (Renderer, bool) {
	for _, r := range Renderers() {
		if r.Name == name {
			return r, true
		}
	}
	return Renderer{}, false
}

// RenderSection renders one registry entry in the golden framing:
// "=== name ===\n<output>\n".
func RenderSection(l *Lab, r Renderer) (string, error) {
	out, err := r.Fn(l)
	if err != nil {
		return "", fmt.Errorf("%s: %w", r.Name, err)
	}
	return fmt.Sprintf("=== %s ===\n%s\n", r.Name, out), nil
}
